//! The benchmark's own span recorder. A span is recorded around every call
//! the harness makes into a layer's public function; spans stay in memory
//! and are written out when the workload ends. The engine has no request
//! context of its own yet, so everything here is timed from outside.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Spans kept per trace; later ones are counted as dropped so a
/// 300k-request phase cannot grow the file without bound.
const MAX_SPANS: usize = 200_000;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (0 = a root).
    pub parent: u64,
    /// Spans of one operation share this.
    pub request_id: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    now_ns(); // pin the epoch before the first span
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped. Inert when tracing is off.
pub struct Guard {
    open: Option<(u64, &'static str, u64, u64, u64)>,
}

impl Guard {
    /// This span's id (0 when tracing is off), for [`span_under`].
    pub fn id(&self) -> u64 {
        self.open.map_or(0, |o| o.0)
    }
}

/// Open a span around a call into a layer. `request_id` ties the spans of
/// one operation together; the parent is the innermost span this thread
/// has open.
pub fn span(name: &'static str, request_id: u64) -> Guard {
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    span_under(name, request_id, parent)
}

/// Open a span caused by `parent`, which another thread may hold: work
/// fanned out to the scheduler still hangs under the call that forked it.
pub fn span_under(name: &'static str, request_id: u64, parent: u64) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard { open: Some((id, name, now_ns(), parent, request_id)) }
}

/// Time `f` inside a span.
pub fn within<T>(name: &'static str, request_id: u64, f: impl FnOnce() -> T) -> T {
    let _g = span(name, request_id);
    f()
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, name, start_ns, parent, request_id)) = self.open.take() else { return };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&open| open == id) {
                s.remove(pos);
            }
        });
        let Ok(mut spans) = SPANS.lock() else { return };
        if spans.len() < MAX_SPANS {
            spans.push(Span { id, name, start_ns, end_ns, parent, request_id });
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Take every recorded span and the number dropped past the cap.
pub fn drain() -> (Vec<Span>, u64) {
    let spans = std::mem::take(&mut *SPANS.lock().expect("span store poisoned"));
    (spans, DROPPED.swap(0, Ordering::Relaxed))
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time is its duration minus the part of its interval that
/// its child spans cover: overlapping children count once, and a child is
/// clipped to its parent's interval.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let bounds: BTreeMap<u64, (u64, u64)> =
        spans.iter().map(|s| (s.id, (s.start_ns, s.end_ns))).collect();
    for s in spans {
        if let Some(&(ps, pe)) = bounds.get(&s.parent) {
            let (lo, hi) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if hi > lo {
                children.entry(s.parent).or_default().push((lo, hi));
            }
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += total;
        t.self_ns += total - covered;
    }
    out
}

pub fn to_json(workload: &str, spans: &[Span], dropped: u64) -> Json {
    let totals = self_times(spans)
        .into_iter()
        .map(|(name, t)| {
            Json::obj(vec![
                ("name", Json::str(name)),
                ("count", Json::Num(t.count as f64)),
                ("total_ns", Json::Num(t.total_ns as f64)),
                ("self_ns", Json::Num(t.self_ns as f64)),
            ])
        })
        .collect();
    let spans = spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("id", Json::Num(s.id as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("request_id", Json::Num(s.request_id as f64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("dropped_spans", Json::Num(dropped as f64)),
        ("self_time_by_name", Json::Arr(totals)),
        ("spans", Json::Arr(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, name: &'static str, start_ns: u64, end_ns: u64, parent: u64) -> Span {
        Span { id, name, start_ns, end_ns, parent, request_id: 1 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; a 10..50 holding b 20..30; c 60..90.
        let spans = [
            sp(1, "root", 0, 100, 0),
            sp(2, "a", 10, 50, 1),
            sp(3, "b", 20, 30, 2),
            sp(4, "c", 60, 90, 1),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_ns, 100 - 40 - 30);
        assert_eq!(t["a"].self_ns, 40 - 10);
        assert_eq!(t["b"].self_ns, 10);
        assert_eq!(t["c"].self_ns, 30);
        let total_self: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(total_self, 100, "self times of one tree sum to the root");
    }

    #[test]
    fn overlapping_children_cover_their_union_and_are_clipped_to_the_parent() {
        // Two parallel children overlap on 30..50; a third runs past the
        // parent's end.
        let spans = [
            sp(1, "root", 0, 100, 0),
            sp(2, "shard", 10, 50, 1),
            sp(3, "shard", 30, 70, 1),
            sp(4, "late", 90, 130, 1),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_ns, 100 - (70 - 10) - (100 - 90));
        assert_eq!(t["shard"], NameTotals { count: 2, total_ns: 80, self_ns: 80 });
    }

    #[test]
    fn guards_record_parents_per_thread() {
        set_enabled(true);
        {
            let outer = span("outer", 7);
            within("inner", 7, || std::hint::black_box(1 + 1));
            let parent = outer.id();
            std::thread::spawn(move || drop(span_under("forked", 7, parent))).join().unwrap();
        }
        set_enabled(false);
        within("ignored", 7, || ());
        let (spans, dropped) = drain();
        assert_eq!(dropped, 0);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!((inner.parent, outer.parent, inner.request_id), (outer.id, 0, 7));
        assert_eq!(spans.iter().find(|s| s.name == "forked").unwrap().parent, outer.id);
        assert!(spans.iter().all(|s| s.name != "ignored"));
        assert_eq!(span("off", 1).id(), 0);
    }
}
