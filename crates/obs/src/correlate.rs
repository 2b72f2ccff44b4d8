//! Request-scoped trace reconstruction: pull one job's events out of the
//! shared ring and rebuild its span tree.
//!
//! A serving recorder interleaves events from every worker thread and every
//! in-flight job. When each event carries the job/tenant correlation a
//! [`crate::Recorder::correlated`] handle stamps on it, [`job_trace`] can
//! recover the single-request view a debugger actually wants: the job's
//! begin/end pairs nested per emitting thread (queue wait → cache lookup →
//! per-context compile workers → sim stepping), with its instant events
//! attached to whichever span was open around them.
//!
//! Reconstruction is tolerant of ring eviction: an `End` whose `Begin` was
//! evicted is dropped, and a `Begin` whose `End` is outside the snapshot
//! (job still running, or evicted) closes with `end_us: None`.

use std::collections::BTreeMap;

use crate::trace::{TraceEvent, TracePhase, TraceValue};

/// One node of a reconstructed span tree: a `Begin`/`End` pair and
/// everything that happened inside it on the same thread.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpan {
    /// Event name of the `Begin`/`End` pair.
    pub name: String,
    /// Microseconds from recorder creation at the `Begin` edge.
    pub start_us: u64,
    /// Microseconds at the `End` edge; `None` when the span never closed
    /// inside the snapshot (in-flight work, or the `End` was evicted).
    pub end_us: Option<u64>,
    /// Thread the span ran on.
    pub tid: u64,
    /// Args carried on the `Begin` edge.
    pub args: Vec<(String, TraceValue)>,
    /// Spans opened (and closed) while this one was open, same thread.
    pub children: Vec<JobSpan>,
    /// Instant events emitted while this span was the innermost open one.
    pub instants: Vec<TraceEvent>,
}

impl JobSpan {
    /// Wall-clock duration, when the span closed inside the snapshot.
    pub fn duration_us(&self) -> Option<u64> {
        self.end_us.map(|end| end.saturating_sub(self.start_us))
    }

    /// Depth-first search for the first descendant (or self) named `name`.
    pub fn find(&self, name: &str) -> Option<&JobSpan> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// Everything one job left in the trace ring, reassembled.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTrace {
    /// The correlation id the events were filtered by.
    pub job: u64,
    /// Tenant label, from the first correlated event that carried one.
    pub tenant: Option<String>,
    /// Top-level spans (no enclosing correlated span on their thread),
    /// ordered by start time.
    pub roots: Vec<JobSpan>,
    /// Instants that fired outside any open span of this job (e.g. the
    /// submit-side `job_submitted` marker, emitted on the client thread).
    pub instants: Vec<TraceEvent>,
    /// Correlated events consumed, including unmatched `End`s.
    pub n_events: usize,
}

impl JobTrace {
    /// Depth-first search across all roots for a span named `name`.
    pub fn span(&self, name: &str) -> Option<&JobSpan> {
        self.roots.iter().find_map(|r| r.find(name))
    }

    /// First instant named `name`, searching loose instants then the tree.
    pub fn instant(&self, name: &str) -> Option<&TraceEvent> {
        fn in_span<'a>(s: &'a JobSpan, name: &str) -> Option<&'a TraceEvent> {
            s.instants
                .iter()
                .find(|e| e.name == name)
                .or_else(|| s.children.iter().find_map(|c| in_span(c, name)))
        }
        self.instants
            .iter()
            .find(|e| e.name == name)
            .or_else(|| self.roots.iter().find_map(|r| in_span(r, name)))
    }
}

/// Distinct job ids present in `events`, in order of first appearance.
pub fn job_ids(events: &[TraceEvent]) -> Vec<u64> {
    let mut seen = Vec::new();
    for e in events {
        if let Some(job) = e.job {
            if !seen.contains(&job) {
                seen.push(job);
            }
        }
    }
    seen
}

/// Rebuild `job`'s span tree from an event snapshot (see
/// [`crate::Recorder::trace_events`]). `None` when no event carries the id.
pub fn job_trace(events: &[TraceEvent], job: u64) -> Option<JobTrace> {
    // Per-thread stacks of open spans: a span guard's Begin/End pair nests
    // in LIFO order on its emitting thread.
    let mut stacks: BTreeMap<u64, Vec<JobSpan>> = BTreeMap::new();
    let mut roots: Vec<JobSpan> = Vec::new();
    let mut loose: Vec<TraceEvent> = Vec::new();
    let mut tenant: Option<String> = None;
    let mut n_events = 0usize;

    fn close_into(stack: &mut [JobSpan], roots: &mut Vec<JobSpan>, span: JobSpan) {
        match stack.last_mut() {
            Some(parent) => parent.children.push(span),
            None => roots.push(span),
        }
    }

    for e in events.iter().filter(|e| e.job == Some(job)) {
        n_events += 1;
        if tenant.is_none() {
            tenant.clone_from(&e.tenant);
        }
        let stack = stacks.entry(e.tid).or_default();
        match e.phase {
            TracePhase::Begin => stack.push(JobSpan {
                name: e.name.clone(),
                start_us: e.ts_us,
                end_us: None,
                tid: e.tid,
                args: e.args.clone(),
                children: Vec::new(),
                instants: Vec::new(),
            }),
            TracePhase::End => {
                // An End without its Begin means the Begin was evicted from
                // the ring; there is nothing to anchor it to.
                if let Some(mut span) = stack.pop() {
                    span.end_us = Some(e.ts_us);
                    close_into(stack, &mut roots, span);
                }
            }
            TracePhase::Instant => match stack.last_mut() {
                Some(top) => top.instants.push(e.clone()),
                None => loose.push(e.clone()),
            },
        }
    }
    // Spans still open at snapshot time surface with end_us: None.
    for (_tid, mut stack) in stacks {
        while let Some(span) = stack.pop() {
            close_into(&mut stack, &mut roots, span);
        }
    }
    if n_events == 0 {
        return None;
    }
    roots.sort_by_key(|s| s.start_us);
    Some(JobTrace {
        job,
        tenant,
        roots,
        instants: loose,
        n_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn correlated_recorder_rebuilds_one_jobs_tree() {
        let rec = Recorder::enabled();
        let a = rec.correlated(7, "tenant-a");
        let b = rec.correlated(8, "tenant-b");
        b.instant("job_submitted", &[]);
        a.instant("job_submitted", &[("kind", "compile".into())]);
        {
            let _outer = a.span("compile_job", &[]);
            a.instant("cache_lookup", &[("hit", false.into())]);
            {
                let _inner = a.span("compile_context", &[("context", 0usize.into())]);
            }
            let _noise = b.span("sim_job", &[]);
        }
        rec.instant("uncorrelated", &[]);

        let events = rec.trace_events();
        assert_eq!(job_ids(&events), vec![8, 7]);

        let trace = job_trace(&events, 7).expect("job 7 traced");
        assert_eq!(trace.tenant.as_deref(), Some("tenant-a"));
        assert_eq!(trace.roots.len(), 1);
        let root = &trace.roots[0];
        assert_eq!(root.name, "compile_job");
        assert!(root.end_us.is_some());
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].name, "compile_context");
        assert_eq!(root.children[0].args[0].1.as_u64(), Some(0));
        assert_eq!(root.instants.len(), 1, "cache_lookup rides in the root");
        assert_eq!(trace.instants.len(), 1, "job_submitted fired outside");
        assert_eq!(trace.n_events, 6);
        assert!(trace.span("compile_context").is_some());
        assert!(trace.instant("cache_lookup").is_some());

        let other = job_trace(&events, 8).expect("job 8 traced");
        assert_eq!(other.tenant.as_deref(), Some("tenant-b"));
        assert!(job_trace(&events, 99).is_none());
    }

    #[test]
    fn unmatched_edges_survive_ring_eviction() {
        let rec = Recorder::enabled();
        let c = rec.correlated(1, "t");
        let g = c.span("outer", &[]);
        c.instant("mid", &[]);
        // Snapshot before the End: the span is open.
        let open = job_trace(&rec.trace_events(), 1).expect("traced");
        assert_eq!(open.roots.len(), 1);
        assert_eq!(open.roots[0].end_us, None);
        assert_eq!(open.roots[0].instants.len(), 1);
        drop(g);
        let closed = job_trace(&rec.trace_events(), 1).expect("traced");
        assert!(closed.roots[0].end_us.is_some());
        assert!(closed.roots[0].duration_us().is_some());

        // A lone End (Begin evicted) is dropped, not mis-nested.
        let mut events = rec.trace_events();
        events.retain(|e| e.phase != TracePhase::Begin);
        let t = job_trace(&events, 1).expect("instant still correlates");
        assert!(t.roots.is_empty());
        assert_eq!(t.instants.len(), 1);
    }
}
