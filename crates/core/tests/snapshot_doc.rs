//! Golden-file coverage for `docs/SNAPSHOT_FORMAT.md`: the worked
//! example embedded in the document is parsed, restored, and
//! re-serialized byte-identically, so the documentation can no longer
//! drift from the parser (a doc edit that breaks the grammar — or a
//! format change that invalidates the doc — fails this test).

use ltc_core::service::LtcService;
use ltc_core::snapshot::{read_snapshot, write_snapshot};

const DOC: &str = include_str!("../../../docs/SNAPSHOT_FORMAT.md");

/// The literal snapshot inside the "Worked example" section's fenced
/// `text` block.
fn worked_example() -> String {
    let section = DOC
        .split("## Worked example")
        .nth(1)
        .expect("the doc keeps its Worked example section");
    let fenced = section
        .split("```text\n")
        .nth(1)
        .expect("the worked example keeps its ```text fence");
    fenced
        .split("```")
        .next()
        .expect("the fence is closed")
        .to_string()
}

#[test]
fn the_docs_worked_example_parses_and_round_trips_byte_identically() {
    let text = worked_example();
    assert!(
        text.starts_with("ltc-snapshot v2\n"),
        "the example must start with the v2 header, got {text:?}"
    );
    let decoded = read_snapshot(text.as_bytes())
        .expect("the documented example must parse with the real reader");

    // The example exercises every optional group family the doc tables
    // describe (rng is algorithm-specific and covered by unit tests).
    assert_eq!(decoded.grow_clamps, Some(512), "grow group");
    assert!(decoded.stripes.is_some(), "stripes group");
    assert_eq!(decoded.engines.len(), 2);
    assert_eq!(decoded.engines[1].clamped_insertions, 1, "clamped group");
    assert_eq!(decoded.engines[1].clamp_mark, 1);
    assert_eq!(decoded.n_assignments, 4, "assigned record");
    assert_eq!(decoded.latest_assigned.map(|w| w.0), Some(3));

    // Writer(reader(doc)) is byte-identical: the doc shows exactly what
    // the implementation produces.
    let mut rewritten = Vec::new();
    write_snapshot(&decoded, &mut rewritten).unwrap();
    assert_eq!(
        String::from_utf8(rewritten).unwrap(),
        text,
        "the documented bytes drifted from the serializer"
    );

    // And the state is actually restorable — a live service comes back,
    // and its own snapshot is the same fixed point.
    let restored = LtcService::restore(decoded.clone()).expect("the example must restore");
    assert_eq!(restored.n_shards(), 2);
    assert_eq!(restored.n_tasks(), 3);
    assert_eq!(restored.metrics().clamped_insertions, 1);
    assert_eq!(restored.n_assignments(), 4);
    assert_eq!(restored.snapshot(), decoded);
}
