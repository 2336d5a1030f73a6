//! Output checks: a single-thread reference pass over the application,
//! and the per-job comparison of the runtime's outputs against it.

use std::time::Instant;

use rocket::apps::Registration;
use rocket::core::{AppReport, Application, Pair};
use rocket::storage::ObjectStore;

/// An application output compared bit for bit.
pub trait Exact {
    type Bits: Copy + Eq;
    fn bits(&self) -> Self::Bits;
}

impl Exact for f64 {
    type Bits = u64;
    fn bits(&self) -> u64 {
        self.to_bits()
    }
}

impl Exact for Registration {
    type Bits = (u64, u64, u32);
    fn bits(&self) -> (u64, u64, u32) {
        (
            self.score.to_bits(),
            self.rotation.to_bits(),
            self.evaluations,
        )
    }
}

/// Number of pairs `i < j` over `n` items.
pub fn pair_count(n: u64) -> u64 {
    n * n.saturating_sub(1) / 2
}

/// Row-major index of pair `(i, j)`, `i < j < n`, in the upper triangle.
fn pair_index(n: u64, pair: Pair) -> Option<usize> {
    let (i, j) = (pair.left, pair.right);
    (i < j && j < n).then(|| (i * n - i * (i + 1) / 2 + (j - i - 1)) as usize)
}

/// The expected output of every pair, and the single-thread kernel time.
pub struct Reference<B> {
    pub items: u64,
    /// Expected output bits, indexed by [`pair_index`].
    pub outputs: Vec<B>,
    /// Single-thread seconds of `n` preprocess plus `C(n,2)` compare
    /// calls: the T_min of Eq 5 on this host.
    pub t_min_s: f64,
}

/// Calls the application's stages directly, one at a time, in pair order.
pub fn reference<A>(
    app: &A,
    store: &dyn ObjectStore,
) -> Result<Reference<<A::Output as Exact>::Bits>, String>
where
    A: Application,
    A::Output: Exact,
{
    let n = app.item_count();
    let mut kernel_s = 0.0;
    let mut items = Vec::with_capacity(n as usize);
    for item in 0..n {
        let raw = store
            .read(&app.file_for(item))
            .map_err(|e| format!("reference read of item {item}: {e}"))?;
        let parsed_len = if app.has_preprocess() {
            app.parsed_bytes()
        } else {
            app.item_bytes()
        };
        let mut parsed = vec![0u8; parsed_len];
        app.parse(item, &raw, &mut parsed)
            .map_err(|e| format!("reference parse of item {item}: {e}"))?;
        if app.has_preprocess() {
            let mut out = vec![0u8; app.item_bytes()];
            let t = Instant::now();
            app.preprocess(item, &parsed, &mut out)
                .map_err(|e| format!("reference preprocess of item {item}: {e}"))?;
            kernel_s += t.elapsed().as_secs_f64();
            items.push(out);
        } else {
            items.push(parsed);
        }
    }
    let mut outputs = Vec::with_capacity(pair_count(n) as usize);
    let mut raw = vec![0u8; app.result_bytes()];
    for i in 0..n {
        for j in i + 1..n {
            let t = Instant::now();
            app.compare((i, &items[i as usize]), (j, &items[j as usize]), &mut raw)
                .map_err(|e| format!("reference compare of ({i}, {j}): {e}"))?;
            kernel_s += t.elapsed().as_secs_f64();
            outputs.push(app.postprocess(Pair { left: i, right: j }, &raw).bits());
        }
    }
    Ok(Reference {
        items: n,
        outputs,
        t_min_s: kernel_s,
    })
}

/// Pairs checked and how many of them were bad, by cause.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    /// Pairs the runtime reported as failed.
    pub failed: u64,
    /// Pairs neither delivered nor reported failed.
    pub missing: u64,
    /// Deliveries of a pair already delivered.
    pub duplicate: u64,
    /// Deliveries whose output differs from the reference, or whose pair
    /// is not in the triangle.
    pub wrong: u64,
}

impl Tally {
    pub fn bad(&self) -> u64 {
        self.failed + self.missing + self.duplicate + self.wrong
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.missing += other.missing;
        self.duplicate += other.duplicate;
        self.wrong += other.wrong;
    }

    /// A job that produced no report at all: every pair counts as failed.
    pub fn lost_job(pairs: u64) -> Tally {
        Tally {
            attempted: pairs,
            failed: pairs,
            ..Tally::default()
        }
    }
}

/// Compares one job's outputs with the reference.
pub fn check_job<O: Exact>(reference: &Reference<O::Bits>, report: &AppReport<O>) -> Tally {
    let n = reference.items;
    let mut seen = vec![false; reference.outputs.len()];
    let mut tally = Tally {
        attempted: pair_count(n),
        ..Tally::default()
    };
    for (pair, out) in &report.outputs {
        match pair_index(n, *pair) {
            None => tally.wrong += 1,
            Some(k) if seen[k] => tally.duplicate += 1,
            Some(k) => {
                seen[k] = true;
                if out.bits() != reference.outputs[k] {
                    tally.wrong += 1;
                }
            }
        }
    }
    for (pair, _) in report.failed() {
        tally.failed += 1;
        if let Some(k) = pair_index(n, *pair) {
            seen[k] = true;
        }
    }
    tally.missing = seen.iter().filter(|&&s| !s).count() as u64;
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_index_is_dense_row_major() {
        let n = 5;
        let mut k = 0;
        for i in 0..n {
            for j in i + 1..n {
                assert_eq!(pair_index(n, Pair { left: i, right: j }), Some(k));
                k += 1;
            }
        }
        assert_eq!(k as u64, pair_count(n));
        assert_eq!(pair_index(n, Pair { left: 2, right: 2 }), None);
        assert_eq!(pair_index(n, Pair { left: 1, right: 5 }), None);
    }
}
