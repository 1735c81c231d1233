//! Multi-session registry and the merged fleet view.
//!
//! Each pushed stream gets its own [`SessionFold`] behind a mutex; sessions
//! are independent, so concurrent clients contend only when they push to the
//! *same* session (where serialization is exactly what the fold needs).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use overlap_core::stream::SessionFold;
use overlap_core::{MetricsRegistry, OverlapStats};
use serde::Serialize;

/// The shared session registry behind the server.
#[derive(Default)]
pub struct Service {
    sessions: Mutex<BTreeMap<String, Arc<Mutex<SessionFold>>>>,
}

/// One row of the `/v1/sessions` listing.
#[derive(Debug, Clone, Serialize)]
pub struct SessionInfo {
    /// Session name (client-chosen; `repro push` defaults to the file stem).
    pub name: String,
    /// Non-empty lines accepted so far.
    pub lines: u64,
    /// Raw event lines folded so far.
    pub events: u64,
    /// Scope labels seen so far, stream order.
    pub scopes: Vec<String>,
}

/// The merged cross-session fleet view served at `/v1/fleet`: every rank of
/// every scope of every session folded into one overlap aggregate and one
/// metrics registry (both mergeable by construction — counters add,
/// histograms share the fixed latency bucket layout).
#[derive(Debug, Clone, Serialize)]
pub struct FleetView {
    /// Session names, sorted.
    pub sessions: Vec<String>,
    /// Total scopes across all sessions.
    pub scopes: usize,
    /// Total rank folds across all sessions.
    pub ranks: usize,
    /// Total raw event lines folded.
    pub events: u64,
    /// All sessions' overlap measures merged.
    pub total: OverlapStats,
    /// All sessions' metrics registries merged.
    pub metrics: MetricsRegistry,
}

impl Service {
    /// Fetch-or-create the named session.
    pub fn session(&self, name: &str) -> Arc<Mutex<SessionFold>> {
        let mut g = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
        g.entry(name.to_string()).or_default().clone()
    }

    /// Fetch the named session if it exists.
    pub fn get(&self, name: &str) -> Option<Arc<Mutex<SessionFold>>> {
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// Every session, name order, with the registry lock released.
    fn sessions(&self) -> Vec<(String, Arc<Mutex<SessionFold>>)> {
        let g = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
        g.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Listing rows for every session, name order.
    pub fn list(&self) -> Vec<SessionInfo> {
        self.sessions()
            .into_iter()
            .map(|(name, s)| {
                let s = s.lock().unwrap_or_else(|e| e.into_inner());
                SessionInfo {
                    name,
                    lines: s.lines(),
                    events: s.event_lines(),
                    scopes: s.scope_names(),
                }
            })
            .collect()
    }

    /// Build the merged fleet view. Snapshots each session in turn (name
    /// order), so it is consistent per session, not across sessions — the
    /// right trade for a live endpoint.
    pub fn fleet(&self) -> FleetView {
        let mut view = FleetView {
            sessions: Vec::new(),
            scopes: 0,
            ranks: 0,
            events: 0,
            total: OverlapStats::default(),
            metrics: MetricsRegistry::new(),
        };
        for (name, s) in self.sessions() {
            view.sessions.push(name);
            let s = s.lock().unwrap_or_else(|e| e.into_inner());
            for scope in s.report() {
                view.scopes += 1;
                for rank in &scope.ranks {
                    view.ranks += 1;
                    view.events += rank.events_recorded;
                    view.total.merge(&rank.total);
                    view.metrics.merge(&rank.metrics);
                }
            }
        }
        view
    }
}
