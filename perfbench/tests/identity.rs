//! The traced run must measure the same program as the untraced one: the
//! timing decorators and the counting cache may not change a single frame.

use bdclique_perfbench::{routing_instance, run_trial, Workload, CF_K};

/// The seed the benchmark documents as its default.
const SEED: u64 = 1;

#[test]
fn traced_trial_matches_untraced_on_every_workload() {
    // One test, workloads in turn: naive-4096 alone peaks near 4 GiB.
    for w in Workload::ALL {
        let plain = run_trial(w, SEED, 0, false).expect("untraced trial");
        let traced = run_trial(w, SEED, 0, true).expect("traced trial");
        assert_eq!(plain.stats, traced.stats, "{}: NetStats differ", w.name());
        assert_eq!(plain.errors, traced.errors, "{}: errors differ", w.name());
        assert_eq!(plain.report, traced.report, "{}: reports differ", w.name());
        plain.check(w).expect("untraced output check");
        // The decorators sit on the path: an attacked workload calls into
        // the adversary every round.
        let attacked = w.alpha() > 0.0;
        assert_eq!(traced.adversary_calls > 0, attacked, "{}", w.name());
        assert!(traced.cache.is_some() && plain.cache.is_none());
    }
}

#[test]
fn routing_instance_has_multiplicity_k_at_sources_and_targets() {
    let inst = routing_instance(64, 7);
    inst.validate().expect("valid instance");
    assert_eq!(inst.messages.len(), 64 * CF_K);
    assert_eq!(inst.max_source_multiplicity(), CF_K);
    assert_eq!(inst.max_target_multiplicity(), CF_K);
}
