//! The figure registry: cells shared across figures simulate once, a
//! figure's output does not depend on what else runs beside it, and id
//! selection rejects unknown ids.

use pagecross_bench::figures::{self, Cell, Figure, REGISTRY};
use pagecross_bench::{CampaignConfig, Scheme, Table, WorkloadResult};
use pagecross_cpu::{PgcPolicyKind, PrefetcherKind};
use pagecross_mem::HugePagePolicy;
use pagecross_types::FastSet;
use pagecross_workloads::{suite, SuiteId};

fn tiny_cfg() -> CampaignConfig {
    CampaignConfig {
        warmup_scale: 0.02,
        measure_scale: 0.02,
        ..Default::default()
    }
}

fn gap0_discard(label: &str, huge: HugePagePolicy) -> Vec<Cell> {
    let mut scheme = Scheme::new(label, PrefetcherKind::Berti, PgcPolicyKind::DiscardPgc);
    scheme.huge = huge;
    vec![Cell::new(&suite(SuiteId::Gap).workloads()[0], scheme)]
}

fn render_labels(results: &[WorkloadResult], t: &mut Table) {
    for r in results {
        t.row(&[r.scheme.clone(), format!("{:.6}", r.report().ipc())]);
    }
}

#[test]
fn a_cell_requested_under_two_labels_simulates_once() {
    let a = Figure {
        id: "a",
        cells: || gap0_discard("discard-a", HugePagePolicy::Fraction(0.0)),
        render: render_labels,
    };
    let b = Figure {
        id: "b",
        cells: || gap0_discard("discard-b", HugePagePolicy::Fraction(0.0)),
        render: render_labels,
    };
    let out = figures::run(&[&a, &b], &tiny_cfg(), 2);
    assert_eq!(out.requested, 2);
    assert_eq!(
        out.run.results.len(),
        1,
        "one distinct cell, one simulation"
    );
    let ipc = format!("{:.6}", out.run.results[0].report().ipc());
    assert_eq!(out.outputs[0].text(), format!("[a] discard-a\t{ipc}\n"));
    assert_eq!(out.outputs[1].text(), format!("[b] discard-b\t{ipc}\n"));

    // -0.0 == 0.0 as floats, but the key compares bits: a different cell.
    let c = Figure {
        id: "c",
        cells: || gap0_discard("discard-a", HugePagePolicy::Fraction(-0.0)),
        render: render_labels,
    };
    let out = figures::run(&[&a, &b, &c], &tiny_cfg(), 2);
    assert_eq!(out.requested, 3);
    assert_eq!(out.run.results.len(), 2);
}

#[test]
fn figures_run_together_print_what_each_prints_alone() {
    let both = figures::select(["fig10".to_string(), "fig11".to_string()]).unwrap();
    let cfg = tiny_cfg();
    let together = figures::run(&both, &cfg, 2);
    assert_eq!(
        together.run.results.len() * 2,
        together.requested,
        "fig10 and fig11 read the same Berti campaign"
    );
    for (fig, output) in both.iter().zip(&together.outputs) {
        let alone = figures::run(&[fig], &cfg, 2);
        assert!(output.text().contains(&format!("[{}] SUMMARY", fig.id)));
        assert_eq!(output.text(), alone.outputs[0].text(), "{}", fig.id);
    }
}

#[test]
fn ids_are_unique_and_selection_follows_registry_order() {
    let ids: FastSet<&str> = REGISTRY.iter().map(|f| f.id).collect();
    assert_eq!(ids.len(), REGISTRY.len(), "duplicate figure id");

    let all = figures::select(["--bench".to_string()]).unwrap();
    assert_eq!(
        all.len(),
        REGISTRY.len(),
        "no ids (cargo's --bench aside) selects all"
    );
    let picked = figures::select(["fig11".to_string(), "fig10".to_string()]).unwrap();
    let picked: Vec<&str> = picked.iter().map(|f| f.id).collect();
    assert_eq!(picked, ["fig10", "fig11"]);
}

#[test]
fn an_unknown_id_exits_nonzero_and_lists_the_valid_ids() {
    let err = figures::select(["fig10".to_string(), "fig99".to_string()]).unwrap_err();
    assert!(err.contains("'fig99'"), "{err}");
    for f in &REGISTRY {
        assert!(err.contains(f.id), "{err} does not list {}", f.id);
    }
    assert_ne!(figures::main(["fig99".to_string()]), 0);
}
