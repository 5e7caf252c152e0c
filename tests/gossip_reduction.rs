//! Integration: the §5 reduction — randomized transmission = flooding on
//! a virtual (thinned) dynamic graph; degenerate parameters recover plain
//! flooding exactly.

use dynspread::dg_edge_meg::TwoStateEdgeMeg;
use dynspread::dynagraph::engine::{MeanGrowthObserver, PushGossip, Simulation};
use dynspread::dynagraph::flooding::flood;
use dynspread::dynagraph::ThinnedEvolvingGraph;

#[test]
fn gamma_one_is_plain_flooding() {
    // Same inner seed => identical edge realizations => identical runs.
    let n = 64;
    for seed in [1u64, 2, 3] {
        let mut plain = TwoStateEdgeMeg::stationary(n, 0.05, 0.2, seed).unwrap();
        let inner = TwoStateEdgeMeg::stationary(n, 0.05, 0.2, seed).unwrap();
        let mut virt = ThinnedEvolvingGraph::new(inner, 1.0, seed).unwrap();
        let a = flood(&mut plain, 0, 10_000);
        let b = flood(&mut virt, 0, 10_000);
        assert_eq!(a, b, "gamma = 1 must reproduce flooding exactly");
    }
}

#[test]
fn huge_fanout_is_plain_flooding() {
    // Fanout n transmits on every edge: same trials as flooding, growth
    // curves and message tallies included.
    let n = 64;
    let run = || {
        Simulation::builder()
            .model(move |seed| TwoStateEdgeMeg::stationary(n, 0.05, 0.2, seed).unwrap())
            .trials(2)
            .max_rounds(10_000)
            .base_seed(4)
            .observers(|_| MeanGrowthObserver::new())
    };
    let (flooding, flooding_growth) = run().run_observed();
    let (push, push_growth) = run().protocol(PushGossip::new(n)).run_observed();
    assert_eq!(flooding, push);
    for (a, b) in flooding_growth.iter().zip(&push_growth) {
        assert_eq!(a.mean_sizes(), b.mean_sizes());
    }
}

#[test]
fn thinning_slows_by_bounded_factor() {
    // The virtual graph is a MEG with alpha' = gamma * alpha, so Theorem 1
    // still applies: flooding slows but by a bounded factor.
    let n = 96;
    let trials = 8;
    let mean = |gamma: f64| -> f64 {
        let mut total = 0.0;
        for t in 0..trials {
            let seed = 100 + t;
            let inner = TwoStateEdgeMeg::stationary(n, 0.08, 0.2, seed).unwrap();
            let mut g = ThinnedEvolvingGraph::new(inner, gamma, seed).unwrap();
            total += flood(&mut g, 0, 100_000)
                .flooding_time()
                .expect("completes") as f64;
        }
        total / trials as f64
    };
    let full = mean(1.0);
    let half = mean(0.5);
    let quarter = mean(0.25);
    assert!(half >= full * 0.9, "thinning cannot speed flooding up");
    assert!(quarter >= half * 0.9);
    assert!(
        quarter <= full * 8.0,
        "quartering edge use should cost a bounded factor: {quarter} vs {full}"
    );
}

#[test]
fn push_fanout_monotone() {
    let n = 96;
    let trials = 8;
    let mean = |k: usize| -> f64 {
        let report = Simulation::builder()
            .model(move |seed| TwoStateEdgeMeg::stationary(n, 0.08, 0.2, seed).unwrap())
            .protocol(PushGossip::new(k))
            .trials(trials)
            .max_rounds(100_000)
            .base_seed(200)
            .run();
        assert_eq!(report.incomplete(), 0, "fanout {k} completes");
        report.mean()
    };
    let k1 = mean(1);
    let k4 = mean(4);
    let kall = mean(n);
    assert!(
        k1 >= k4 * 0.95,
        "larger fanout is no slower: k1 {k1} k4 {k4}"
    );
    assert!(k4 >= kall * 0.95, "k4 {k4} kall {kall}");
}
