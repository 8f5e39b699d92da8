//! Per-layer self time from the spans of a traced run.
//!
//! A span's self time is its duration minus the part of that interval
//! its child spans cover. Spans are attributed to the layer their name
//! names: the benchmark's own spans are `module::function`, the
//! program's existing spans are `layer.stage`.

use crate::harness;
use accelviz_trace::registry::SpanRecord;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// The root span of one replayed operation.
pub const REPLAY_ROOT: &str = "bench::replay";

/// The layer a span belongs to.
fn layer(name: &str) -> &str {
    if let Some((module, _)) = name.split_once("::") {
        return module;
    }
    match name.split_once('.').map_or(name, |(prefix, _)| prefix) {
        // The client library's transfer spans carry the serve prefix.
        "serve" if name.starts_with("serve.fetch") => "client",
        "serve" => "server",
        "session" | "pipeline" => "core",
        other => other,
    }
}

/// `dur` minus the union of `children`'s intervals clipped to the span.
fn self_ns(span: &SpanRecord, children: &[&SpanRecord]) -> u64 {
    let (start, end) = (span.start_ns, span.start_ns + span.dur_ns);
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(start), (c.start_ns + c.dur_ns).min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in iv {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    span.dur_ns - covered
}

/// For every layer, the median over replayed operations of the layer's
/// summed self time within one operation, in ms. The replay roots'
/// own time is harness overhead and is left out.
pub fn layer_self_ms(spans: &[SpanRecord]) -> BTreeMap<String, f64> {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    fn root_of<'a>(by_id: &HashMap<u64, &'a SpanRecord>, mut s: &'a SpanRecord) -> &'a SpanRecord {
        while let Some(p) = by_id.get(&s.parent) {
            s = p;
        }
        s
    }
    let mut per_op: BTreeMap<u64, BTreeMap<&str, u64>> = BTreeMap::new();
    for s in spans {
        let root = root_of(&by_id, s);
        if root.name != REPLAY_ROOT || root.id == s.id {
            continue;
        }
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        *per_op
            .entry(root.id)
            .or_default()
            .entry(layer(&s.name))
            .or_default() += self_ns(s, kids);
    }
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for layers in per_op.values() {
        for (l, ns) in layers {
            samples
                .entry(l.to_string())
                .or_default()
                .push(*ns as f64 / 1e6);
        }
    }
    samples
        .into_iter()
        .map(|(l, v)| (l, harness::median(&v)))
        .collect()
}

/// Writes the global registry's spans as a Chrome trace.
pub fn write_chrome(out_dir: &Path, name: &str) {
    let path = out_dir.join(format!("trace-{name}.json"));
    accelviz_trace::chrome::write_trace(&path, accelviz_trace::global())
        .expect("write the Chrome trace");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: Cow::Borrowed(name),
            track: 0,
            start_ns: start,
            dur_ns: dur,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            span(1, 0, REPLAY_ROOT, 0, 10_000_000),
            span(2, 1, "core::from_partition", 0, 6_000_000),
            // Two overlapping children cover 1..4 ms of the 6 ms call.
            span(3, 2, "core.hybrid_frame", 1_000_000, 2_000_000),
            span(4, 2, "octree.extract", 2_000_000, 2_000_000),
            span(5, 1, "wire::encode_frame_v2", 6_000_000, 3_000_000),
            // A span outside any replay is not attributed.
            span(6, 0, "serve.send", 0, 50_000_000),
        ];
        let layers = layer_self_ms(&spans);
        // core: 6 - 3 covered + 2 (hybrid_frame itself) = 5 ms.
        assert_eq!(layers["core"], 5.0);
        assert_eq!(layers["octree"], 2.0);
        assert_eq!(layers["wire"], 3.0);
        assert!(!layers.contains_key("bench") && !layers.contains_key("server"));
    }

    #[test]
    fn layers_follow_span_names() {
        assert_eq!(layer("serve.fetch_progressive"), "client");
        assert_eq!(layer("serve.extract"), "server");
        assert_eq!(layer("render.points_pass"), "render");
        assert_eq!(layer("store::fetch"), "store");
    }
}
