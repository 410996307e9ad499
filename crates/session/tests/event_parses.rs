//! Event-mode session parses report what tree parses report: the same
//! statistics on every configuration, and the attached telemetry.

use std::rc::Rc;

use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{EventCounts, Stats};
use modpeg_session::ParseSession;
use modpeg_telemetry::{mask, EventKind, Telemetry};

const TEXT: &str = "1 + 2 * (3 - 4) / 5";

fn calc(cfg: OptConfig) -> Rc<CompiledGrammar> {
    let grammar = modpeg_grammars::calc_grammar().expect("calc elaborates");
    Rc::new(CompiledGrammar::compile(&grammar, cfg).expect("calc compiles"))
}

fn tree_stats(cfg: OptConfig) -> Stats {
    let mut session = ParseSession::new(calc(cfg), TEXT);
    session.parse().expect("valid input");
    session.last_stats().clone()
}

fn event_stats(cfg: OptConfig) -> Stats {
    let mut session = ParseSession::new(calc(cfg), TEXT);
    session
        .parse_events(&mut EventCounts::default())
        .expect("valid input");
    session.last_stats().clone()
}

#[test]
fn event_parse_stats_match_tree_parse_stats() {
    // `cumulative(0)` has no chunked memo table, so its sessions parse
    // from scratch through the hash memo.
    for cfg in [OptConfig::cumulative(0), OptConfig::incremental()] {
        let tree = tree_stats(cfg);
        assert!(tree.productions_evaluated > 0, "{tree}");
        assert_eq!(event_stats(cfg), tree, "under {cfg:?}");
    }
}

#[test]
fn event_parses_report_to_the_attached_telemetry() {
    for cfg in [OptConfig::cumulative(0), OptConfig::incremental()] {
        let mut session = ParseSession::new(calc(cfg), TEXT);
        let telem = Telemetry::collector(1 << 16).with_mask(mask::ALL);
        session.attach_telemetry(&telem);
        session
            .parse_events(&mut EventCounts::default())
            .expect("valid input");
        let report = telem.take_report();
        let spans = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Enter { .. }))
            .count();
        assert!(spans > 0, "no production spans recorded under {cfg:?}");
        assert!(!report.names.is_empty(), "production names installed");
    }
}
