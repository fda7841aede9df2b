//! End-to-end serving acceptance: fit a model with the batch pipeline,
//! then check the online query path against the batch clustering.

use lsh_ddp::prelude::*;
use serve::ServeError;

/// Fit a model over a seeded mixture the way `lshddp fit` does.
fn fit(n_per: usize, k: usize, seed: u64) -> (ClusterModel, Vec<u32>) {
    let ld = datasets::gaussian_mixture(3, k, n_per, 80.0, 1.5, seed);
    let ds = &ld.data;
    let dc = dp_core::cutoff::estimate_dc_sampled(ds, 0.02, 100_000, seed);
    let ddp = LshDdp::with_accuracy(0.99, 10, 3, dc, seed).expect("valid params");
    let params = ddp.config().params;
    let report = ddp.run(ds, dc);
    let outcome = CentralizedStep::new(PeakSelection::TopK(k)).run(&report.result);
    let model = ClusterModel::from_run(ds, &report, &outcome, &params, seed);
    let labels = outcome.clustering.labels().to_vec();
    (model, labels)
}

#[test]
fn online_assignment_reproduces_batch_labels_on_held_in_points() {
    let (model, batch_labels) = fit(150, 4, 31);
    let engine = QueryEngine::new(model);
    let m = engine.model();
    let agree = (0..m.len() as u32)
        .filter(|&id| engine.assign(m.point(id)).cluster == batch_labels[id as usize])
        .count();
    let rate = agree as f64 / m.len() as f64;
    assert!(
        rate >= 0.99,
        "held-in agreement {rate} < 0.99 ({agree}/{})",
        m.len()
    );
}

/// The nearest center to `q`, ties to the smaller cluster id.
fn nearest_center(model: &ClusterModel, q: &[f64]) -> u32 {
    let d2 =
        |c: &u32| dp_core::distance::squared_euclidean(q, model.point(model.peaks()[*c as usize]));
    (0..model.n_clusters() as u32)
        .min_by(|a, b| d2(a).total_cmp(&d2(b)).then(a.cmp(b)))
        .expect("a model keeps a peak")
}

#[test]
fn out_of_distribution_points_degrade_to_the_exact_fallback() {
    let (model, _) = fit(80, 3, 32);
    let engine = QueryEngine::new(model);
    let m = engine.model();
    let dim = m.dim();

    // Far outside every blob: the query's nearest point answers, at a
    // confidence that decays with the distance; no fallback.
    for far in [1e5, -3e5, 9e6] {
        let q = vec![far; dim];
        let nearest = (0..m.len() as u32)
            .min_by(|&a, &b| {
                let d2 = |id| dp_core::distance::squared_euclidean(&q, m.point(id));
                d2(a).total_cmp(&d2(b)).then(a.cmp(&b))
            })
            .unwrap();
        let a = engine.assign(&q);
        assert!(!a.fallback, "a finite point at {far} never falls back");
        assert_eq!(a.rho_estimate, 0);
        assert_eq!(a.cluster, m.label(nearest));
        assert!(a.confidence < 0.01, "confidence {} at {far}", a.confidence);
    }

    // Held-in points never fall back.
    for id in (0..m.len() as u32).step_by(9) {
        assert!(!engine.assign(m.point(id)).fallback);
    }

    // A NaN or infinite coordinate skips the index: the nearest-center
    // fallback answers with zero confidence and density.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut q = m.point(0).to_vec();
        q[0] = bad;
        let a = engine.assign(&q);
        assert!(a.fallback, "{bad} must fall back");
        assert_eq!(a.rho_estimate, 0);
        assert_eq!(a.confidence.to_bits(), 0.0f64.to_bits(), "{bad}");
        assert_eq!(a.cluster, nearest_center(m, &q), "{bad}");
    }
}

#[test]
fn model_artifact_round_trips_through_disk() {
    let (model, _) = fit(60, 3, 33);
    let dir = std::env::temp_dir().join("lshddp-serving-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.bin");
    let path = path.to_str().unwrap();

    model.save(path).expect("save");
    let loaded = ClusterModel::load(path).expect("load");
    assert_eq!(loaded, model);

    // Engines over the original and the reloaded artifact answer
    // identically (layouts are redrawn deterministically from the seed).
    let a = QueryEngine::new(model);
    let b = QueryEngine::new(loaded);
    for id in (0..a.model().len() as u32).step_by(7) {
        let q = a.model().point(id).to_vec();
        assert_eq!(a.assign(&q), b.assign(&q));
    }

    // A truncated artifact is rejected, not misread.
    let bytes = std::fs::read(path).unwrap();
    std::fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(ClusterModel::load(path).is_err());
    std::fs::remove_file(path).ok();
}

#[test]
fn server_round_trips_agree_with_the_engine_and_count_stats() {
    let (model, _) = fit(70, 3, 34);
    let engine = QueryEngine::new(model.clone());
    let server = Server::start(
        QueryEngine::new(model.clone()),
        ServerConfig {
            threads: 2,
            max_batch: 8,
            cache_capacity: 256,
            ..ServerConfig::default()
        },
    );
    let client = server.client();

    let n = model.len() as u32;
    for id in 0..n {
        let got = client.assign(model.point(id)).expect("server answer");
        assert_eq!(got, engine.assign(model.point(id)), "point {id}");
    }
    // Second pass: same queries, now served from the cache.
    for id in 0..n {
        let got = client.assign(model.point(id)).expect("cached answer");
        assert_eq!(got.cluster, engine.assign(model.point(id)).cluster);
    }

    let stats = client.stats().expect("in-band stats query");
    assert_eq!(stats.queries, u64::from(n) * 2);
    assert!(
        stats.counters["cache_hits"] > 0,
        "repeat queries must hit the cache"
    );
    assert!(stats.qps > 0.0);
    assert!(stats.p50_latency_us > 0.0);

    server.shutdown();
    assert_eq!(client.assign(model.point(0)), Err(ServeError::Closed));
}
