//! The inputs of a blended window: which kernels reach it and with what
//! per-sample weights (paper eqns 37/46, `f(n) = Σ_i g_i(n)·(w̃_i ⊛ X)(n)`).
//!
//! [`WeightTable`] holds one weight evaluation per sample of a window, so
//! both rungs of the window engine's ladder read the same weights without
//! asking the weight map twice. [`Reach`] is how far a set of kernels
//! reaches around a sample: the padding of the one noise window every
//! kernel of a request reads from.

use crate::kernel::ConvolutionKernel;
use rrs_grid::Window;

/// The non-zero `(kernel index, weight)` pairs of every sample of an
/// `nx × ny` window, row-major.
#[derive(Debug)]
pub(crate) struct WeightTable {
    /// Sample `n`'s pairs are `pairs[starts[n]..starts[n + 1]]`.
    starts: Vec<u32>,
    pairs: Vec<(usize, f64)>,
}

impl WeightTable {
    /// Evaluates `weights_at(ix, iy, out)` once per sample of an
    /// `nx × ny` window, row by row; `out` arrives cleared and receives
    /// that sample's non-zero pairs.
    ///
    /// # Panics
    /// Panics if the table would hold more than `u32::MAX` pairs.
    pub(crate) fn build(
        nx: usize,
        ny: usize,
        mut weights_at: impl FnMut(usize, usize, &mut Vec<(usize, f64)>),
    ) -> Self {
        let mut starts = Vec::with_capacity(nx * ny + 1);
        let mut pairs = Vec::with_capacity(nx * ny);
        let mut sample = Vec::new();
        starts.push(0);
        for iy in 0..ny {
            for ix in 0..nx {
                sample.clear();
                weights_at(ix, iy, &mut sample);
                pairs.extend_from_slice(&sample);
                starts.push(u32::try_from(pairs.len()).expect("weight table exceeds u32 pairs"));
            }
        }
        Self { starts, pairs }
    }

    /// The footprint of a table over `samples` samples that carries one
    /// pair per sample — the least any window needs — in f64-equivalents.
    pub(crate) fn min_footprint(samples: usize) -> u128 {
        (4 * (samples as u128 + 1) + 16 * samples as u128).div_ceil(8)
    }

    /// This table's footprint in f64-equivalents, for admission control.
    pub(crate) fn footprint(&self) -> u128 {
        (4 * self.starts.len() as u128 + 16 * self.pairs.len() as u128).div_ceil(8)
    }

    /// Sample `n`'s `(kernel index, weight)` pairs.
    #[inline]
    pub(crate) fn sample(&self, n: usize) -> &[(usize, f64)] {
        &self.pairs[self.starts[n] as usize..self.starts[n + 1] as usize]
    }

    /// The kernel indices with a non-zero weight anywhere in the window,
    /// ascending.
    pub(crate) fn active(&self) -> Vec<usize> {
        let mut seen = Vec::new();
        for &(k, _) in &self.pairs {
            if seen.len() <= k {
                seen.resize(k + 1, false);
            }
            seen[k] = true;
        }
        seen.iter()
            .enumerate()
            .filter(|(_, &on)| on)
            .map(|(k, _)| k)
            .collect()
    }

    /// `(pure, blended, kernel evaluations)`: samples carrying one
    /// kernel, samples carrying several, and the pairs over all samples.
    pub(crate) fn counts(&self) -> (u64, u64, u64) {
        let samples = self.starts.len() - 1;
        let pure = self.starts.windows(2).filter(|s| s[1] - s[0] == 1).count();
        (
            pure as u64,
            (samples - pure) as u64,
            self.pairs.len() as u64,
        )
    }

    /// Adds kernel `k`'s share of `field` to `out`: `out(n) += g_k(n)·field(n)`
    /// wherever sample `n` carries `k`. A sample whose only pair is
    /// `(k, 1.0)` takes the field sample itself, so a pure window is the
    /// field bit for bit.
    pub(crate) fn accumulate(&self, k: usize, field: &[f64], out: &mut [f64]) {
        for (n, (o, &f)) in out.iter_mut().zip(field).enumerate() {
            match self.sample(n) {
                &[(ki, g)] if ki == k && g == 1.0 => *o = f,
                pairs => {
                    for &(ki, g) in pairs {
                        if ki == k {
                            *o += g * f;
                        }
                    }
                }
            }
        }
    }
}

/// How far a set of kernels reaches from a sample, in lattice steps:
/// `f(n)` reads noise over `[n.x − left, n.x + right] × [n.y − down, n.y + up]`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Reach {
    /// Steps to the left (towards −x).
    pub(crate) left: i64,
    /// Steps to the right (towards +x).
    pub(crate) right: i64,
    /// Steps down (towards −y).
    pub(crate) down: i64,
    /// Steps up (towards +y).
    pub(crate) up: i64,
}

impl Reach {
    /// The union reach of `kernels` (zero for an empty set). One
    /// kernel's reach spans exactly its extent, wherever its origin.
    pub(crate) fn of<'a>(kernels: impl IntoIterator<Item = &'a ConvolutionKernel>) -> Self {
        kernels
            .into_iter()
            .map(|k| {
                let (w, h) = k.extent();
                let (ox, oy) = k.origin();
                Self { left: ox + w as i64 - 1, right: -ox, down: oy + h as i64 - 1, up: -oy }
            })
            .reduce(|a, b| Self {
                left: a.left.max(b.left),
                right: a.right.max(b.right),
                down: a.down.max(b.down),
                up: a.up.max(b.up),
            })
            .unwrap_or_default()
    }

    /// The noise window `(x0, y0, width, height)` an output window reads.
    pub(crate) fn window(&self, win: Window) -> (i64, i64, usize, usize) {
        (
            win.x0 - self.left,
            win.y0 - self.down,
            win.nx + (self.left + self.right) as usize,
            win.ny + (self.down + self.up) as usize,
        )
    }

    /// Where `kernel`'s own `(nx+kw−1) × (ny+kh−1)` window starts inside
    /// this reach's window.
    pub(crate) fn offset_of(&self, kernel: &ConvolutionKernel) -> (usize, usize) {
        let (w, h) = kernel.extent();
        let (ox, oy) = kernel.origin();
        (
            (self.left - (ox + w as i64 - 1)) as usize,
            (self.down - (oy + h as i64 - 1)) as usize,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_indexes_samples_and_counts_the_mix() {
        // Sample 0 pure on kernel 2, sample 1 blends 0 and 2, sample 2
        // pure on kernel 0.
        let rows = [vec![(2, 1.0)], vec![(0, 0.25), (2, 0.75)], vec![(0, 1.0)]];
        let t = WeightTable::build(3, 1, |ix, _, out| out.extend_from_slice(&rows[ix]));
        assert_eq!(t.sample(1), &[(0, 0.25), (2, 0.75)]);
        assert_eq!(t.active(), vec![0, 2]);
        assert_eq!(t.counts(), (2, 1, 4));
        assert!(t.footprint() >= WeightTable::min_footprint(3));

        let mut out = vec![0.0; 3];
        t.accumulate(0, &[10.0, 20.0, -0.0], &mut out);
        t.accumulate(2, &[1.0, 2.0, 3.0], &mut out);
        assert_eq!(out, vec![1.0, 0.25 * 20.0 + 0.75 * 2.0, 0.0]);
        assert!(
            out[2].is_sign_negative(),
            "a pure sample copies its field bit for bit"
        );
    }

    #[test]
    fn reach_of_one_kernel_is_its_own_window_wherever_its_origin() {
        // A kernel entirely at positive offsets, and a centred one.
        let off = ConvolutionKernel::from_parts(rrs_grid::Grid2::zeros(5, 3), 2, 1);
        let centred = ConvolutionKernel::from_parts(rrs_grid::Grid2::zeros(7, 7), -3, -3);
        let win = Window::new(10, 20, 4, 6);
        assert_eq!(Reach::of([&off]).window(win), (4, 17, 4 + 5 - 1, 6 + 3 - 1));
        let both = Reach::of([&off, &centred]);
        assert_eq!(both.window(win), (10 - 6, 20 - 3, 4 + 6 + 3, 6 + 3 + 3));
        assert_eq!(both.offset_of(&off), (0, 0));
        assert_eq!(both.offset_of(&centred), (3, 0));
    }
}
