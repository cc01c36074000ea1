//! Ledger layer: one comm event, counted once into the rank total and
//! once into the multigrid level it belongs to.
//!
//! Owns the total [`CommStats`], the level-context stack and the
//! per-level [`CommStats`]. A level gets an entry only when an event lands
//! on it — rendered traces list exactly the levels that communicated.

use crate::stats::CommStats;
use std::collections::BTreeMap;

#[derive(Default)]
pub(super) struct Ledger {
    total: CommStats,
    /// Level contexts, innermost last.
    stack: Vec<usize>,
    per_level: BTreeMap<usize, CommStats>,
}

impl Ledger {
    pub(super) fn enter(&mut self, level: usize) {
        self.stack.push(level);
    }

    pub(super) fn exit(&mut self) {
        self.stack.pop();
    }

    /// The innermost active level context, if any.
    pub(super) fn current(&self) -> Option<usize> {
        self.stack.last().copied()
    }

    /// Count `event` into the total and the innermost level.
    pub(super) fn tally(&mut self, event: impl Fn(&mut CommStats)) {
        self.tally_at(self.current(), event);
    }

    /// Count `event` into the total and an explicit `level`: a send held
    /// back by an injected delay belongs to the level that issued it, not
    /// to the one whose blocking point happens to flush it.
    pub(super) fn tally_at(&mut self, level: Option<usize>, event: impl Fn(&mut CommStats)) {
        event(&mut self.total);
        if let Some(l) = level {
            event(self.per_level.entry(l).or_default());
        }
    }

    pub(super) fn total(&self) -> &CommStats {
        &self.total
    }

    pub(super) fn take_total(&mut self) -> CommStats {
        std::mem::take(&mut self.total)
    }

    pub(super) fn take_levels(&mut self) -> BTreeMap<usize, CommStats> {
        std::mem::take(&mut self.per_level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columbia_rt::props::vec;

    columbia_rt::props! {
        /// Random interleavings of enter/exit/tally/tally_at against a
        /// hand-kept model: the total is the merge of every per-level
        /// ledger plus the events recorded outside any level, a level has
        /// an entry only if an event landed on it, and nesting attributes
        /// to the innermost context.
        fn prop_ledger_total_is_levels_plus_unattributed(
            ops in vec((0u32..4, 0usize..5, 1usize..64), 0..48),
        ) {
            let mut ledger = Ledger::default();
            let mut stack: Vec<usize> = Vec::new();
            let mut levels: BTreeMap<usize, CommStats> = BTreeMap::new();
            let mut unattributed = CommStats::default();
            for (op, level, bytes) in ops {
                match op {
                    0 => {
                        ledger.enter(level);
                        stack.push(level);
                    }
                    1 => {
                        ledger.exit();
                        stack.pop();
                    }
                    2 => {
                        ledger.tally(|s| s.record_send(level, bytes));
                        match stack.last() {
                            Some(&l) => levels.entry(l).or_default().record_send(level, bytes),
                            None => unattributed.record_send(level, bytes),
                        }
                    }
                    _ => {
                        // Explicit attribution ignores the stack entirely.
                        let at = (bytes % 2 == 0).then_some(level);
                        ledger.tally_at(at, |s| s.record_recv(bytes));
                        match at {
                            Some(l) => levels.entry(l).or_default().record_recv(bytes),
                            None => unattributed.record_recv(bytes),
                        }
                    }
                }
                assert_eq!(ledger.current(), stack.last().copied());
            }
            let mut merged = unattributed;
            for s in levels.values() {
                merged.merge(s);
            }
            assert_eq!(ledger.total(), &merged);
            assert_eq!(ledger.take_levels(), levels, "entries only where events landed");
            assert_eq!(ledger.take_total(), merged);
            assert_eq!(ledger.total(), &CommStats::default(), "taking resets");
        }
    }
}
