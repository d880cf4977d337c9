//! Seeded input generation, order statistics and process memory.

/// SplitMix64: the benchmark's own generator, so its inputs stay fixed
/// even if the program's RNG crate changes.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream, so adding a stream never
    /// shifts another stream's values.
    pub fn stream(seed: u64, tag: u64) -> Self {
        let mut r = Self(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Nearest-rank percentile `p ∈ [0, 1]` of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// The process's peak resident set (`VmHWM`) in MiB. Each workload runs
/// in its own process, so no other workload's peak is included.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// Largest absolute difference relative to the reference's largest
/// magnitude: the scale the equivalence tests bound by 1e-9.
pub fn rel_max_diff(got: &[f64], reference: &[f64]) -> f64 {
    if got.len() != reference.len() {
        return f64::INFINITY;
    }
    let scale = reference
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(f64::MIN_POSITIVE);
    let worst = got.iter().zip(reference).fold(0.0f64, |m, (a, b)| {
        let d = (a - b).abs();
        if d.is_nan() {
            f64::INFINITY
        } else {
            m.max(d)
        }
    });
    worst / scale
}
