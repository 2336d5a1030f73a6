//! Micro-benchmarks for the three applications' computational kernels
//! (the black boxes of §5, reimplemented in Rust).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rocket_apps::bioinfo::{composition_vector, sparse_correlation};
use rocket_apps::forensics::{ForensicsApp, ForensicsConfig};
use rocket_apps::microscopy::{gmm_l2_score, register, rotate, Metric, MicroscopyConfig};
use rocket_core::Application;
use rocket_stats::Xoshiro256;

fn bench_forensics(c: &mut Criterion) {
    let mut group = c.benchmark_group("forensics");
    let (w, h) = (128usize, 128usize);
    let mut rng = Xoshiro256::seed_from(1);
    let image: Vec<f32> = (0..w * h).map(|_| rng.f64() as f32).collect();
    group.throughput(Throughput::Elements((w * h) as u64));
    group.bench_function("residual_extraction_128x128", |b| {
        b.iter(|| ForensicsApp::extract_residual(black_box(&image), w, h));
    });
    let a = ForensicsApp::extract_residual(&image, w, h);
    let image2: Vec<f32> = (0..w * h).map(|_| rng.f64() as f32).collect();
    let bb = ForensicsApp::extract_residual(&image2, w, h);
    group.bench_function("ncc_dot_128x128", |b| {
        b.iter(|| {
            let dot: f64 = black_box(&a)
                .iter()
                .zip(black_box(&bb))
                .map(|(&x, &y)| (x * y) as f64)
                .sum();
            dot
        });
    });
    // The kernel as `ForensicsApp` runs it: little-endian f32 residuals in
    // byte buffers, decoded inside the dot product. 32x32 is the image
    // size of perfbench's `forensics_dist`.
    let (w, h) = (32usize, 32usize);
    let app = ForensicsApp::new(&ForensicsConfig {
        width: w,
        height: h,
        ..ForensicsConfig::default()
    });
    let residual_bytes = |rng: &mut Xoshiro256| -> Vec<u8> {
        let image: Vec<f32> = (0..w * h).map(|_| rng.f64() as f32).collect();
        ForensicsApp::extract_residual(&image, w, h)
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect()
    };
    let (left, right) = (residual_bytes(&mut rng), residual_bytes(&mut rng));
    let mut out = vec![0u8; app.result_bytes()];
    group.throughput(Throughput::Elements((w * h) as u64));
    group.bench_function("compare_app_32x32", |b| {
        b.iter(|| {
            app.compare((0, black_box(&left)), (1, black_box(&right)), &mut out)
                .unwrap();
            black_box(&out);
        });
    });
    group.finish();
}

fn bench_bioinfo(c: &mut Criterion) {
    let mut group = c.benchmark_group("bioinfo");
    let mut rng = Xoshiro256::seed_from(2);
    let codes: Vec<u8> = (0..20_000).map(|_| rng.below(20) as u8).collect();
    group.bench_function("composition_vector_k3_20k", |b| {
        b.iter(|| composition_vector(black_box(&codes), 3));
    });
    let cv_a = composition_vector(&codes, 3);
    let codes_b: Vec<u8> = (0..20_000).map(|_| rng.below(20) as u8).collect();
    let cv_b = composition_vector(&codes_b, 3);
    group.throughput(Throughput::Elements((cv_a.len() + cv_b.len()) as u64));
    group.bench_function("sparse_correlation", |b| {
        b.iter(|| sparse_correlation(black_box(&cv_a), black_box(&cv_b)));
    });
    group.finish();
}

fn bench_microscopy(c: &mut Criterion) {
    let mut group = c.benchmark_group("microscopy");
    let mut rng = Xoshiro256::seed_from(3);
    let particle: Vec<(f32, f32)> = (0..100)
        .map(|_| (rng.f64() as f32 * 2.0, rng.f64() as f32 * 2.0))
        .collect();
    let other = rotate(&particle, 0.7);
    group.bench_function("gmm_l2_score_100x100", |b| {
        b.iter(|| gmm_l2_score(black_box(&particle), black_box(&other), 0.1));
    });
    group.bench_function("register_grid24_100pts", |b| {
        b.iter(|| {
            register(
                black_box(&particle),
                black_box(&other),
                Metric::GmmL2,
                24,
                0.1,
            )
        });
    });
    // The kernel as `MicroscopyApp` runs it: bandwidth twice the default
    // noise, and 90-point particles, the mean of the default 60..=120
    // range.
    let app_particle: Vec<(f32, f32)> = (0..90)
        .map(|_| (rng.f64() as f32 * 2.0, rng.f64() as f32 * 2.0))
        .collect();
    let app_other = rotate(&app_particle, 0.7);
    let app_sigma = 2.0 * MicroscopyConfig::default().noise;
    group.bench_function("register_app_sigma_90pts", |b| {
        b.iter(|| {
            register(
                black_box(&app_particle),
                black_box(&app_other),
                Metric::GmmL2,
                24,
                app_sigma,
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_forensics, bench_bioinfo, bench_microscopy);
criterion_main!(benches);
