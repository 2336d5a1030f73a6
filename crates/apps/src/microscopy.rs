//! Localization-microscopy particle fusion (§5.3 of the paper).
//!
//! Super-resolution localization microscopy produces *particles*: clouds of
//! fluorophore localizations (2D points), thousands per particle. The
//! template-free fusion method of Heydarian et al. performs all-to-all
//! *registration*: for each pair of particles, find the rigid transform
//! that best aligns them and report the alignment score. Scoring treats
//! each particle as a Gaussian Mixture Model (GMM); the paper's kernels
//! implement a quadratic GMM L2 metric and the Bhattacharyya distance.
//!
//! This reproduction implements both scores and a rotation-search
//! optimizer (coarse angular grid + golden-section refinement). Per-pair
//! cost is `O(evaluations × surviving terms)`: each evaluation visits all
//! `nx × ny` point pairs but calls `exp` only for those whose Gaussian
//! exponent is below 40, since a skipped term adds less than
//! e⁻⁴⁰ ≈ 4.2e-18. How many survive depends on the particles' shapes and
//! pose, which makes the cost strongly data-dependent — the source of this
//! workload's extreme irregularity (Fig 7 right: 564 ± 348 ms).
//!
//! Particles are stored as JSON files (`{"points": [[x, y], ...]}`) like
//! the original's simulator output; there is no GPU pre-processing stage
//! (Table 1: N/A) — parsing yields the comparable item directly.

use rocket_core::{AppError, Application, ItemId, Pair};
use rocket_stats::Xoshiro256;
use rocket_storage::MemStore;

use crate::json::Json;

/// Which similarity metric the comparison kernel optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Gaussian-mixture L2 cross-correlation (Jian & Vemuri style).
    GmmL2,
    /// Bhattacharyya coefficient approximated on the kernel densities.
    Bhattacharyya,
}

/// Synthetic particle-set configuration.
#[derive(Debug, Clone)]
pub struct MicroscopyConfig {
    /// Number of particles (the paper's n = 256).
    pub particles: u64,
    /// Number of distinct underlying structures.
    pub structures: usize,
    /// Anchor (binding-site) count per structure.
    pub anchors: usize,
    /// Minimum localizations per particle.
    pub points_min: usize,
    /// Maximum localizations per particle (paper: 1000–2000).
    pub points_max: usize,
    /// Localization-noise sigma.
    pub noise: f64,
    /// Fraction of anchors visible per particle (under-labelling).
    pub labelling: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MicroscopyConfig {
    fn default() -> Self {
        Self {
            particles: 16,
            structures: 2,
            anchors: 8,
            points_min: 60,
            points_max: 120,
            noise: 0.06,
            labelling: 0.85,
            seed: 0x5C09ED,
        }
    }
}

/// A generated particle set plus ground truth.
pub struct MicroscopyDataset {
    /// Particle JSON files.
    pub store: MemStore,
    /// `structure_of[i]` = underlying structure of particle `i`.
    pub structure_of: Vec<usize>,
    /// `rotation_of[i]` = ground-truth rotation applied to particle `i`.
    pub rotation_of: Vec<f64>,
    /// The configuration used.
    pub config: MicroscopyConfig,
}

impl MicroscopyDataset {
    /// Storage key of particle `i`.
    pub fn key(i: ItemId) -> String {
        format!("particles/p{i:04}.json")
    }

    /// Generates particles: ring-like anchor structures, localizations
    /// sampled around randomly labelled anchors, random rotation per
    /// particle.
    pub fn generate(config: MicroscopyConfig) -> MicroscopyDataset {
        let mut rng = Xoshiro256::seed_from(config.seed);
        // Structures: anchor spirals. A spiral's radius grows monotonically
        // with angle, so it has no rotational symmetry — the ground-truth
        // pose of each particle is uniquely recoverable by registration.
        let structures: Vec<Vec<(f64, f64)>> = (0..config.structures)
            .map(|s| {
                let radius = 1.0 + 0.5 * s as f64;
                // Random anchor bearings on a radius spiral: no rigid
                // rotation maps the anchor set onto itself (uniform or
                // golden-angle spacing would alias poses by one anchor
                // step), so every particle's ground-truth pose is uniquely
                // recoverable.
                let mut bearings: Vec<f64> = (0..config.anchors)
                    .map(|_| rng.f64() * std::f64::consts::TAU)
                    .collect();
                bearings.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                bearings
                    .iter()
                    .enumerate()
                    .map(|(a, &phi)| {
                        let t = a as f64 / config.anchors as f64;
                        let r = radius * (0.55 + 0.9 * t);
                        (r * phi.cos(), r * phi.sin())
                    })
                    .collect()
            })
            .collect();
        let store = MemStore::new();
        let mut structure_of = Vec::new();
        let mut rotation_of = Vec::new();
        for i in 0..config.particles {
            let s = rng.below(config.structures);
            let theta = rng.f64() * std::f64::consts::TAU;
            structure_of.push(s);
            rotation_of.push(theta);
            let count = config.points_min + rng.below(config.points_max - config.points_min + 1);
            let (sin, cos) = theta.sin_cos();
            let mut points = Vec::with_capacity(count);
            // Under-labelling: each anchor visible with probability
            // `labelling` for this particle.
            let visible: Vec<bool> = (0..config.anchors)
                .map(|_| rng.chance(config.labelling))
                .collect();
            let visible_anchors: Vec<usize> = (0..config.anchors).filter(|&a| visible[a]).collect();
            for _ in 0..count {
                let &a = if visible_anchors.is_empty() {
                    &0
                } else {
                    visible_anchors
                        .get(rng.below(visible_anchors.len()))
                        .expect("non-empty")
                };
                let (ax, ay) = structures[s][a];
                let nx = ax + gaussian(&mut rng) * config.noise;
                let ny = ay + gaussian(&mut rng) * config.noise;
                // Apply the particle's pose.
                let px = cos * nx - sin * ny;
                let py = sin * nx + cos * ny;
                points.push(Json::Arr(vec![Json::Num(px), Json::Num(py)]));
            }
            let mut obj = std::collections::BTreeMap::new();
            obj.insert("points".to_string(), Json::Arr(points));
            obj.insert("particle".to_string(), Json::Num(i as f64));
            store.put(
                Self::key(i),
                Json::Obj(obj).to_string_compact().into_bytes(),
            );
        }
        MicroscopyDataset {
            store,
            structure_of,
            rotation_of,
            config,
        }
    }
}

fn gaussian(rng: &mut Xoshiro256) -> f64 {
    // Marsaglia polar, single draw.
    loop {
        let u = 2.0 * rng.f64() - 1.0;
        let v = 2.0 * rng.f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Gaussian terms whose exponent `q = d²/(4σ²)` reaches this value are
/// skipped by the GMM-L2 score and the EM step: each would add less than
/// e⁻⁴⁰ ≈ 4.2e-18, far below an ulp of any sum that holds a term near 1.
/// At the target bandwidth about half the terms of a registration fall
/// past it.
const Q_CUTOFF: f64 = 40.0;

/// GMM L2 cross-correlation of two point sets at bandwidth `sigma`:
/// `(1/(nx·ny)) Σᵢⱼ exp(−‖xᵢ−yⱼ‖² / (4σ²))` — the cross term of the L2
/// distance between the two kernel densities. Higher is better. Terms
/// with an exponent of 40 or more are skipped (each is below e⁻⁴⁰).
pub fn gmm_l2_score(xs: &[(f32, f32)], ys: &[(f32, f32)], sigma: f64) -> f64 {
    if xs.is_empty() || ys.is_empty() {
        return 0.0;
    }
    let inv = 1.0 / (4.0 * sigma * sigma);
    let mut total = 0.0f64;
    for &(xa, ya) in xs {
        for &(xb, yb) in ys {
            let dx = (xa - xb) as f64;
            let dy = (ya - yb) as f64;
            let q = (dx * dx + dy * dy) * inv;
            if q < Q_CUTOFF {
                total += (-q).exp();
            }
        }
    }
    total / (xs.len() as f64 * ys.len() as f64)
}

/// One EM update of the translation aligning `moved` onto `ys`: the
/// Gaussian-weighted mean offset between the two point sets. Terms past
/// [`Q_CUTOFF`] are skipped; when none survive (particles far apart) the
/// uncut sum is taken instead, so the step still pulls them together.
fn em_step(moved: &[(f32, f32)], ys: &[(f32, f32)], sigma: f64) -> (f64, f64) {
    let inv = 1.0 / (4.0 * sigma * sigma);
    let sums = |cutoff: f64| {
        let (mut sw, mut sx, mut sy) = (0.0f64, 0.0f64, 0.0f64);
        for &(xa, ya) in moved {
            for &(xb, yb) in ys {
                let dx = xb as f64 - xa as f64;
                let dy = yb as f64 - ya as f64;
                let q = (dx * dx + dy * dy) * inv;
                if q < cutoff {
                    let w = (-q).exp();
                    sw += w;
                    sx += w * dx;
                    sy += w * dy;
                }
            }
        }
        (sw, sx, sy)
    };
    let (mut sw, mut sx, mut sy) = sums(Q_CUTOFF);
    if sw == 0.0 {
        (sw, sx, sy) = sums(f64::INFINITY);
    }
    if sw > 0.0 {
        (sx / sw, sy / sw)
    } else {
        (0.0, 0.0)
    }
}

/// Bhattacharyya coefficient approximated on kernel densities: evaluates
/// `√(p(z)·q(z))` over the union of both point sets as sample locations.
/// In `[0, 1]`-ish, higher is better.
pub fn bhattacharyya_score(xs: &[(f32, f32)], ys: &[(f32, f32)], sigma: f64) -> f64 {
    if xs.is_empty() || ys.is_empty() {
        return 0.0;
    }
    let density = |pts: &[(f32, f32)], z: (f64, f64)| -> f64 {
        let inv = 1.0 / (2.0 * sigma * sigma);
        let sum: f64 = pts
            .iter()
            .map(|&(x, y)| {
                let dx = x as f64 - z.0;
                let dy = y as f64 - z.1;
                (-(dx * dx + dy * dy) * inv).exp()
            })
            .sum();
        sum / pts.len() as f64
    };
    let mut acc = 0.0;
    let mut count = 0usize;
    for &(x, y) in xs.iter().chain(ys.iter()) {
        let z = (x as f64, y as f64);
        acc += (density(xs, z) * density(ys, z)).sqrt();
        count += 1;
    }
    acc / count as f64
}

/// Rotates a point set by `theta` around the origin.
pub fn rotate(points: &[(f32, f32)], theta: f64) -> Vec<(f32, f32)> {
    let (sin, cos) = theta.sin_cos();
    points
        .iter()
        .map(|&(x, y)| {
            (
                (cos * x as f64 - sin * y as f64) as f32,
                (sin * x as f64 + cos * y as f64) as f32,
            )
        })
        .collect()
}

/// Result of registering two particles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Registration {
    /// Best similarity score found.
    pub score: f64,
    /// Rotation (radians) applied to the left particle at the optimum.
    pub rotation: f64,
    /// Score evaluations performed (the irregularity driver).
    pub evaluations: u32,
}

/// Translates a point set by `t`.
pub fn translate(points: &[(f32, f32)], t: (f64, f64)) -> Vec<(f32, f32)> {
    points
        .iter()
        .map(|&(x, y)| ((x as f64 + t.0) as f32, (y as f64 + t.1) as f32))
        .collect()
}

/// Writes `xs` rotated by `theta` and then translated by `t` into `out`,
/// rounding exactly as `translate(&rotate(xs, theta), t)` does: rotate and
/// round to f32, then add `t` and round to f32.
fn place(out: &mut Vec<(f32, f32)>, xs: &[(f32, f32)], theta: f64, t: (f64, f64)) {
    let (sin, cos) = theta.sin_cos();
    out.clear();
    out.extend(xs.iter().map(|&(x, y)| {
        let rx = (cos * x as f64 - sin * y as f64) as f32;
        let ry = (sin * x as f64 + cos * y as f64) as f32;
        ((rx as f64 + t.0) as f32, (ry as f64 + t.1) as f32)
    }));
}

/// Golden-section iterations per rotation bracket.
const GOLDEN_STEPS: usize = 10;

/// Scores poses of one centred particle pair without allocating: each
/// evaluation places `xs` into the reusable `moved` buffer and compares it
/// against `ys`.
struct Evaluator {
    xs: Vec<(f32, f32)>,
    ys: Vec<(f32, f32)>,
    moved: Vec<(f32, f32)>,
    metric: Metric,
    evaluations: u32,
}

impl Evaluator {
    fn score(&mut self, theta: f64, t: (f64, f64), sigma: f64) -> f64 {
        place(&mut self.moved, &self.xs, theta, t);
        self.evaluations += 1;
        match self.metric {
            Metric::GmmL2 => gmm_l2_score(&self.moved, &self.ys, sigma),
            Metric::Bhattacharyya => bhattacharyya_score(&self.moved, &self.ys, sigma),
        }
    }

    fn em_step(&mut self, theta: f64, t: (f64, f64), sigma: f64) -> (f64, f64) {
        place(&mut self.moved, &self.xs, theta, t);
        self.evaluations += 1;
        em_step(&self.moved, &self.ys, sigma)
    }

    /// Golden-section search for the best rotation in `[lo, hi]` at fixed
    /// translation. Each step keeps one interior probe and its score, so
    /// a bracket costs 2 + (GOLDEN_STEPS − 1) evaluations.
    fn refine_rotation(&mut self, mut lo: f64, mut hi: f64, t: (f64, f64), sigma: f64) -> f64 {
        let phi = (5.0f64.sqrt() - 1.0) / 2.0;
        let mut m1 = hi - phi * (hi - lo);
        let mut m2 = lo + phi * (hi - lo);
        let mut s1 = self.score(m1, t, sigma);
        let mut s2 = self.score(m2, t, sigma);
        for step in 1..=GOLDEN_STEPS {
            // The last step only narrows the bracket; its probe goes unused.
            let probe = step < GOLDEN_STEPS;
            if s1 >= s2 {
                hi = m2;
                (m2, s2) = (m1, s1);
                m1 = hi - phi * (hi - lo);
                if probe {
                    s1 = self.score(m1, t, sigma);
                }
            } else {
                lo = m1;
                (m1, s1) = (m2, s2);
                m2 = lo + phi * (hi - lo);
                if probe {
                    s2 = self.score(m2, t, sigma);
                }
            }
        }
        (lo + hi) / 2.0
    }
}

/// Registers `xs` onto `ys` with a rigid transform (rotation +
/// translation): coarse rotation grid at an annealed bandwidth, then for
/// the most promising cells an alternation of golden-section rotation
/// refinement and EM translation updates at the target bandwidth.
///
/// Translation matters even for centred particles: anchor-occupancy
/// imbalance biases each particle's sampled centroid by `O(spread/√n)`,
/// which is comparable to the kernel bandwidth — rotation-only search then
/// loses the true alignment.
pub fn register(
    xs: &[(f32, f32)],
    ys: &[(f32, f32)],
    metric: Metric,
    grid_steps: usize,
    sigma: f64,
) -> Registration {
    let center = |pts: &[(f32, f32)]| -> Vec<(f32, f32)> {
        if pts.is_empty() {
            return Vec::new();
        }
        let cx = pts.iter().map(|p| p.0 as f64).sum::<f64>() / pts.len() as f64;
        let cy = pts.iter().map(|p| p.1 as f64).sum::<f64>() / pts.len() as f64;
        pts.iter()
            .map(|&(x, y)| ((x as f64 - cx) as f32, (y as f64 - cy) as f32))
            .collect()
    };
    let xs = center(xs);
    let ys = center(ys);

    let tau = std::f64::consts::TAU;
    let steps = grid_steps.max(1);
    let spread = if xs.is_empty() {
        1.0
    } else {
        (xs.iter()
            .map(|p| (p.0 as f64).hypot(p.1 as f64))
            .sum::<f64>()
            / xs.len() as f64)
            .max(1e-6)
    };
    let mut eval = Evaluator {
        moved: Vec::with_capacity(xs.len()),
        xs,
        ys,
        metric,
        evaluations: 0,
    };
    // Annealed bandwidth: the rotation basin (≈ sigma/spread radians) must
    // span at least one grid cell for the coarse search to see it.
    let sigma_coarse = sigma.max(tau / steps as f64 * spread);
    let mut grid: Vec<(f64, f64)> = Vec::with_capacity(steps);
    for step in 0..steps {
        let theta = step as f64 / steps as f64 * tau;
        grid.push((eval.score(theta, (0.0, 0.0), sigma_coarse), theta));
    }
    grid.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));

    let cell = tau / steps as f64;
    let mut best = Registration {
        score: f64::NEG_INFINITY,
        rotation: 0.0,
        evaluations: 0,
    };
    for &(_, seed_theta) in grid.iter().take(3) {
        // Alternate translation EM and golden-section rotation refinement.
        let mut t = (0.0f64, 0.0f64);
        let mut theta = seed_theta;
        for _round in 0..2 {
            // Translation EM at the annealed then target bandwidth.
            for s in [sigma_coarse, sigma] {
                let dt = eval.em_step(theta, t, s);
                t.0 += dt.0;
                t.1 += dt.1;
            }
            // Rotation refinement at fixed translation.
            theta = eval.refine_rotation(theta - cell, theta + cell, t, sigma);
        }
        let score = eval.score(theta, t, sigma);
        if score > best.score {
            best = Registration {
                score,
                rotation: theta.rem_euclid(tau),
                evaluations: 0,
            };
        }
    }
    best.evaluations = eval.evaluations;
    best
}

/// The microscopy [`Application`].
pub struct MicroscopyApp {
    particles: u64,
    max_points: usize,
    metric: Metric,
    grid_steps: usize,
    sigma: f64,
}

impl MicroscopyApp {
    /// Creates the application for a data set generated with `config`.
    pub fn new(config: &MicroscopyConfig) -> Self {
        Self {
            particles: config.particles,
            max_points: config.points_max,
            metric: Metric::GmmL2,
            grid_steps: 24,
            sigma: 2.0 * config.noise,
        }
    }

    /// Switches the similarity metric.
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    fn decode_points(buf: &[u8]) -> Vec<(f32, f32)> {
        let n = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        let mut out = Vec::with_capacity(n);
        for p in 0..n {
            let o = 4 + p * 8;
            let x = f32::from_le_bytes([buf[o], buf[o + 1], buf[o + 2], buf[o + 3]]);
            let y = f32::from_le_bytes([buf[o + 4], buf[o + 5], buf[o + 6], buf[o + 7]]);
            out.push((x, y));
        }
        out
    }
}

impl Application for MicroscopyApp {
    type Output = Registration;

    fn name(&self) -> &str {
        "microscopy"
    }

    fn item_count(&self) -> u64 {
        self.particles
    }

    fn file_for(&self, item: ItemId) -> String {
        MicroscopyDataset::key(item)
    }

    fn parsed_bytes(&self) -> usize {
        4 + self.max_points * 8
    }

    fn item_bytes(&self) -> usize {
        self.parsed_bytes()
    }

    fn result_bytes(&self) -> usize {
        8 + 8 + 4
    }

    fn has_preprocess(&self) -> bool {
        false
    }

    fn parse(&self, item: ItemId, raw: &[u8], out: &mut [u8]) -> Result<(), AppError> {
        let text = std::str::from_utf8(raw)
            .map_err(|_| AppError::new("parse", format!("particle {item}: not UTF-8")))?;
        let doc = Json::parse(text)
            .map_err(|e| AppError::new("parse", format!("particle {item}: {e}")))?;
        let points = doc
            .get("points")
            .and_then(Json::as_arr)
            .ok_or_else(|| AppError::new("parse", format!("particle {item}: no points array")))?;
        if points.len() > self.max_points {
            return Err(AppError::new(
                "parse",
                format!(
                    "particle {item}: {} points exceeds max {}",
                    points.len(),
                    self.max_points
                ),
            ));
        }
        out[..4].copy_from_slice(&(points.len() as u32).to_le_bytes());
        for (p, pt) in points.iter().enumerate() {
            let coords = pt
                .as_arr()
                .filter(|c| c.len() == 2)
                .ok_or_else(|| AppError::new("parse", format!("particle {item}: bad point {p}")))?;
            let x = coords[0]
                .as_f64()
                .ok_or_else(|| AppError::new("parse", format!("particle {item}: non-numeric x")))?
                as f32;
            let y = coords[1]
                .as_f64()
                .ok_or_else(|| AppError::new("parse", format!("particle {item}: non-numeric y")))?
                as f32;
            let o = 4 + p * 8;
            out[o..o + 4].copy_from_slice(&x.to_le_bytes());
            out[o + 4..o + 8].copy_from_slice(&y.to_le_bytes());
        }
        Ok(())
    }

    fn compare(
        &self,
        left: (ItemId, &[u8]),
        right: (ItemId, &[u8]),
        out: &mut [u8],
    ) -> Result<(), AppError> {
        let xs = Self::decode_points(left.1);
        let ys = Self::decode_points(right.1);
        let reg = register(&xs, &ys, self.metric, self.grid_steps, self.sigma);
        out[..8].copy_from_slice(&reg.score.to_le_bytes());
        out[8..16].copy_from_slice(&reg.rotation.to_le_bytes());
        out[16..20].copy_from_slice(&reg.evaluations.to_le_bytes());
        Ok(())
    }

    fn postprocess(&self, _pair: Pair, raw: &[u8]) -> Registration {
        Registration {
            score: f64::from_le_bytes(raw[..8].try_into().expect("score")),
            rotation: f64::from_le_bytes(raw[8..16].try_into().expect("rotation")),
            evaluations: u32::from_le_bytes(raw[16..20].try_into().expect("evaluations")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocket_storage::ObjectStore;

    fn points_of(ds: &MicroscopyDataset, app: &MicroscopyApp, i: u64) -> Vec<(f32, f32)> {
        let raw = ds.store.read(&MicroscopyDataset::key(i)).unwrap();
        let mut parsed = vec![0u8; app.parsed_bytes()];
        app.parse(i, &raw, &mut parsed).unwrap();
        MicroscopyApp::decode_points(&parsed)
    }

    fn small() -> (MicroscopyDataset, MicroscopyApp) {
        let config = MicroscopyConfig {
            particles: 8,
            ..Default::default()
        };
        let app = MicroscopyApp::new(&config);
        (MicroscopyDataset::generate(config), app)
    }

    #[test]
    fn json_files_parse_back() {
        let (ds, app) = small();
        for i in 0..4 {
            let pts = points_of(&ds, &app, i);
            assert!(pts.len() >= ds.config.points_min);
            assert!(pts.len() <= ds.config.points_max);
        }
    }

    #[test]
    fn gmm_score_peaks_at_identity() {
        let pts: Vec<(f32, f32)> = (0..40)
            .map(|i| ((i as f32 * 0.7).sin() * 2.0, (i as f32 * 1.3).cos() * 2.0))
            .collect();
        let self_score = gmm_l2_score(&pts, &pts, 0.1);
        let rotated = rotate(&pts, 1.0);
        let off_score = gmm_l2_score(&rotated, &pts, 0.1);
        assert!(self_score > off_score, "{self_score} vs {off_score}");
    }

    #[test]
    fn scores_are_symmetric() {
        let a: Vec<(f32, f32)> = (0..20)
            .map(|i| (i as f32 * 0.3, (i as f32 * 0.11).sin()))
            .collect();
        let b: Vec<(f32, f32)> = (0..25)
            .map(|i| ((i as f32 * 0.21).cos(), i as f32 * 0.2))
            .collect();
        for sigma in [0.05, 0.2] {
            assert!((gmm_l2_score(&a, &b, sigma) - gmm_l2_score(&b, &a, sigma)).abs() < 1e-12);
            assert!(
                (bhattacharyya_score(&a, &b, sigma) - bhattacharyya_score(&b, &a, sigma)).abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn register_recovers_known_rotation() {
        // Fully labelled, low-noise particles: registration must recover
        // the ground-truth pose. (With heavy under-labelling individual
        // registrations can genuinely fail — that is the very motivation
        // for all-to-all fusion in Heydarian et al. — so this test pins
        // the well-posed case.)
        let config = MicroscopyConfig {
            particles: 8,
            labelling: 1.0,
            noise: 0.03,
            points_min: 100,
            points_max: 160,
            ..Default::default()
        };
        let app = MicroscopyApp::new(&config);
        let ds = MicroscopyDataset::generate(config);
        // Particle pairs from the same structure: registration must find a
        // rotation close to the ground-truth relative rotation.
        let mut checked = 0;
        let n = ds.structure_of.len();
        for i in 0..n {
            for j in (i + 1)..n {
                if ds.structure_of[i] != ds.structure_of[j] {
                    continue;
                }
                let xs = points_of(&ds, &app, i as u64);
                let ys = points_of(&ds, &app, j as u64);
                let reg = register(&xs, &ys, Metric::GmmL2, 36, app.sigma);
                let expected =
                    (ds.rotation_of[j] - ds.rotation_of[i]).rem_euclid(std::f64::consts::TAU);
                let mut err = (reg.rotation - expected).abs();
                err = err.min(std::f64::consts::TAU - err);
                assert!(
                    err < 0.3,
                    "pair ({i},{j}): recovered {:.3}, expected {expected:.3}",
                    reg.rotation
                );
                checked += 1;
                if checked >= 3 {
                    return;
                }
            }
        }
        assert!(checked > 0, "no same-structure pairs generated");
    }

    #[test]
    fn same_structure_scores_higher() {
        let (ds, app) = small();
        let n = ds.structure_of.len();
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let xs = points_of(&ds, &app, i as u64);
                let ys = points_of(&ds, &app, j as u64);
                let reg = register(&xs, &ys, Metric::GmmL2, 24, app.sigma);
                if ds.structure_of[i] == ds.structure_of[j] {
                    same.push(reg.score);
                } else {
                    diff.push(reg.score);
                }
            }
        }
        assert!(!same.is_empty() && !diff.is_empty());
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&same) > avg(&diff),
            "same-structure mean {:.4} must beat different {:.4}",
            avg(&same),
            avg(&diff)
        );
    }

    #[test]
    fn compare_through_trait_roundtrips() {
        let (ds, app) = small();
        let raw0 = ds.store.read(&MicroscopyDataset::key(0)).unwrap();
        let raw1 = ds.store.read(&MicroscopyDataset::key(1)).unwrap();
        let mut a = vec![0u8; app.item_bytes()];
        let mut b = vec![0u8; app.item_bytes()];
        app.parse(0, &raw0, &mut a).unwrap();
        app.parse(1, &raw1, &mut b).unwrap();
        let mut result = vec![0u8; app.result_bytes()];
        app.compare((0, &a), (1, &b), &mut result).unwrap();
        let reg = app.postprocess(Pair::new(0, 1), &result);
        assert!(reg.score.is_finite());
        assert!((0.0..std::f64::consts::TAU).contains(&reg.rotation));
        assert!(reg.evaluations > 24);
    }

    #[test]
    fn parse_rejects_bad_json() {
        let (_, app) = small();
        let mut out = vec![0u8; app.parsed_bytes()];
        assert!(app.parse(0, b"not json", &mut out).is_err());
        assert!(app.parse(0, b"{\"nopoints\": 1}", &mut out).is_err());
        assert!(app.parse(0, b"{\"points\": [[1]]}", &mut out).is_err());
        assert!(app
            .parse(0, b"{\"points\": [[1, \"x\"]]}", &mut out)
            .is_err());
    }

    #[test]
    fn bhattacharyya_metric_also_discriminates() {
        let pts: Vec<(f32, f32)> = (0..30)
            .map(|i| {
                let phi = i as f32 / 30.0 * std::f32::consts::TAU;
                (phi.cos() * (1.0 + 0.3 * (2.0 * phi).sin()), phi.sin())
            })
            .collect();
        let self_score = bhattacharyya_score(&pts, &pts, 0.1);
        let other: Vec<(f32, f32)> = pts.iter().map(|&(x, y)| (x * 2.0, y * 0.5)).collect();
        let cross = bhattacharyya_score(&pts, &other, 0.1);
        assert!(self_score > cross);
    }

    #[test]
    fn workload_is_irregular() {
        // Evaluation counts (and thus run times) vary pair to pair.
        let (ds, app) = small();
        let mut counts = std::collections::HashSet::new();
        for j in 1..5u64 {
            let xs = points_of(&ds, &app, 0);
            let ys = points_of(&ds, &app, j);
            counts.insert(xs.len() * ys.len());
        }
        assert!(
            counts.len() > 1,
            "point-count products identical: {counts:?}"
        );
    }

    /// Uniform random points in `[-2, 2]²`.
    fn random_points(rng: &mut Xoshiro256, n: usize) -> Vec<(f32, f32)> {
        let mut coord = || (rng.f64() * 4.0 - 2.0) as f32;
        (0..n).map(|_| (coord(), coord())).collect()
    }

    /// The GMM-L2 score summed over every term, with no cutoff.
    fn full_sum_score(xs: &[(f32, f32)], ys: &[(f32, f32)], sigma: f64) -> f64 {
        let inv = 1.0 / (4.0 * sigma * sigma);
        let mut total = 0.0;
        for &(xa, ya) in xs {
            for &(xb, yb) in ys {
                let dx = (xa - xb) as f64;
                let dy = (ya - yb) as f64;
                total += (-(dx * dx + dy * dy) * inv).exp();
            }
        }
        total / (xs.len() as f64 * ys.len() as f64)
    }

    /// The EM translation summed over every term, with no cutoff.
    fn full_sum_em(xs: &[(f32, f32)], ys: &[(f32, f32)], sigma: f64) -> (f64, f64) {
        let inv = 1.0 / (4.0 * sigma * sigma);
        let (mut sw, mut sx, mut sy) = (0.0, 0.0, 0.0);
        for &(xa, ya) in xs {
            for &(xb, yb) in ys {
                let dx = xb as f64 - xa as f64;
                let dy = yb as f64 - ya as f64;
                let w = (-(dx * dx + dy * dy) * inv).exp();
                sw += w;
                sx += w * dx;
                sy += w * dy;
            }
        }
        (sx / sw, sy / sw)
    }

    #[test]
    fn cutoff_kernels_match_full_sum_oracle() {
        let mut rng = Xoshiro256::seed_from(17);
        for sigma in [0.05, 0.12, 0.4] {
            for _ in 0..5 {
                let xs = random_points(&mut rng, 70);
                let ys = random_points(&mut rng, 90);
                let score = gmm_l2_score(&xs, &ys, sigma);
                let oracle = full_sum_score(&xs, &ys, sigma);
                assert!(
                    (score - oracle).abs() <= 1e-15,
                    "sigma {sigma}: {score} vs {oracle}"
                );
                let dt = em_step(&xs, &ys, sigma);
                let oracle = full_sum_em(&xs, &ys, sigma);
                assert!(
                    (dt.0 - oracle.0).abs() <= 1e-12 && (dt.1 - oracle.1).abs() <= 1e-12,
                    "sigma {sigma}: {dt:?} vs {oracle:?}"
                );
            }
        }
    }

    #[test]
    fn grid24_registration_makes_105_evaluations() {
        // 24 grid cells, then for each of 3 seeds: 2 rounds of (2 EM steps
        // + 11 golden-section probes), plus one final score.
        let (ds, app) = small();
        let reg = register(
            &points_of(&ds, &app, 0),
            &points_of(&ds, &app, 1),
            Metric::GmmL2,
            24,
            app.sigma,
        );
        assert_eq!(reg.evaluations, 105);
    }

    #[test]
    fn em_step_translates_particles_beyond_the_cutoff() {
        let sigma = 0.12;
        let ring: Vec<(f32, f32)> = (0..20)
            .map(|i| {
                let phi = i as f64 / 20.0 * std::f64::consts::TAU;
                ((0.3 * phi.cos()) as f32, (0.3 * phi.sin()) as f32)
            })
            .collect();
        let far = translate(&ring, (3.0, 0.0));
        // Closest points are 2.4 apart: every term has q ≥ 100 > Q_CUTOFF.
        let inv = 1.0 / (4.0 * sigma * sigma);
        for &(xa, ya) in &ring {
            for &(xb, yb) in &far {
                let d2 = ((xb - xa) as f64).powi(2) + ((yb - ya) as f64).powi(2);
                assert!(d2 * inv >= Q_CUTOFF);
            }
        }
        let dt = em_step(&ring, &far, sigma);
        let want = full_sum_em(&ring, &far, sigma);
        assert!(dt.0 > 2.0, "no pull toward the far particle: {dt:?}");
        assert!((dt.0 - want.0).abs() < 1e-12 && (dt.1 - want.1).abs() < 1e-12);
    }

    #[test]
    fn placement_matches_rotate_then_translate_bitwise() {
        let mut rng = Xoshiro256::seed_from(5);
        let xs = random_points(&mut rng, 50);
        let mut moved = Vec::new();
        for (theta, t) in [
            (0.0, (0.0, 0.0)),
            (0.7, (0.013, -0.2)),
            (-2.9, (1.5e-3, 7e-5)),
            (5.5, (-0.31, 0.47)),
        ] {
            place(&mut moved, &xs, theta, t);
            let want = translate(&rotate(&xs, theta), t);
            let bits = |p: &[(f32, f32)]| -> Vec<(u32, u32)> {
                p.iter().map(|&(x, y)| (x.to_bits(), y.to_bits())).collect()
            };
            assert_eq!(bits(&moved), bits(&want), "theta {theta}, t {t:?}");
        }
    }
}
