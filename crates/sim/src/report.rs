//! Minimal fixed-width ASCII table rendering for experiment output.

use core::fmt;

/// A printable table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
    /// Optional title printed above.
    pub title: String,
}

impl Table {
    /// New table with a title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            title: title.into(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        if !self.title.is_empty() {
            writeln!(f, "{}", self.title)?;
        }
        let line = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            for w in &widths {
                write!(f, "+{}", "-".repeat(w + 2))?;
            }
            writeln!(f, "+")
        };
        line(f)?;
        for (i, h) in self.headers.iter().enumerate() {
            write!(f, "| {:<width$} ", h, width = widths[i])?;
        }
        writeln!(f, "|")?;
        line(f)?;
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                write!(f, "| {:<width$} ", c, width = widths[i])?;
            }
            writeln!(f, "|")?;
        }
        line(f)
    }
}

/// The base directory reports are written to: `$DMT_RESULTS_DIR` when
/// set (tests point it at a unique temp dir to avoid clobbering the
/// repo's `results/` under parallel `cargo test`), `results` otherwise.
/// Resolved once by [`crate::runner::env_config`] — the workspace's one
/// environment-read site.
pub fn results_dir() -> std::path::PathBuf {
    crate::runner::env_config().results_dir.clone()
}

impl Table {
    /// Render as CSV (header row + data rows), for plotting.
    pub fn to_csv(&self) -> String {
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Write the CSV rendering to `<results_dir>/<name>.csv` (see
    /// [`results_dir`]), creating the directory as needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        self.write_csv_in(&results_dir(), name)
    }

    /// Write the CSV rendering to `<dir>/<name>.csv`, creating the
    /// directory as needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv_in(
        &self,
        dir: &std::path::Path,
        name: &str,
    ) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// A hand-rolled JSON value for machine-readable reports (the workspace
/// is dependency-free, so no serde). Object keys keep insertion order —
/// reports diff cleanly run to run.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A boolean.
    Bool(bool),
    /// An unsigned integer (no float formatting noise for counters).
    U64(u64),
    /// A float; non-finite values serialize as `null` (JSON has no NaN).
    F64(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object builder seeded empty.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert a key (objects only).
    ///
    /// # Panics
    ///
    /// Panics when called on a non-object.
    pub fn set(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            _ => panic!("set on non-object"),
        }
        self
    }
}

/// Render a [`Telemetry`](dmt_telemetry::Telemetry) block as JSON
/// (schema `dmt-telemetry-v1`): the three histograms (non-empty log2
/// buckets with inclusive bounds, plus scalar summaries), every counter
/// by its stable name, derived per-level TLB/PWC hit rates, and the
/// fragmentation/RSS time-series. Attached per row by
/// [`SweepReport::to_json`](crate::sweep::SweepReport::to_json) and
/// pinned byte-for-byte by `tests/golden_telemetry.rs`.
pub fn telemetry_json(t: &dmt_telemetry::Telemetry) -> Json {
    use dmt_telemetry::{ratio, Counter};
    let hist = |h: &dmt_telemetry::Histogram| {
        Json::obj()
            .set("count", Json::U64(h.count()))
            .set("sum", Json::U64(h.sum()))
            .set("mean", Json::F64(h.mean()))
            .set("min", Json::U64(h.min().unwrap_or(0)))
            .set("max", Json::U64(h.max().unwrap_or(0)))
            .set("p50", Json::U64(h.quantile(0.5)))
            .set("p99", Json::U64(h.quantile(0.99)))
            .set(
                "buckets",
                Json::Arr(
                    h.nonzero_buckets()
                        .map(|(lo, hi, n)| {
                            Json::obj()
                                .set("lo", Json::U64(lo))
                                .set("hi", Json::U64(hi))
                                .set("n", Json::U64(n))
                        })
                        .collect(),
                ),
            )
    };
    let c = |name: Counter| t.counters.get(name);
    let mut counters = Json::obj();
    for (counter, value) in t.counters.iter() {
        counters = counters.set(counter.name(), Json::U64(value));
    }
    let tlb_total = c(Counter::TlbL1Hits) + c(Counter::TlbStlbHits) + c(Counter::TlbMisses);
    let pwc_total = c(Counter::PwcL2Hits)
        + c(Counter::PwcL3Hits)
        + c(Counter::PwcL4Hits)
        + c(Counter::PwcMisses);
    Json::obj()
        .set("schema", Json::Str("dmt-telemetry-v1".into()))
        .set("walk_latency", hist(&t.walk_latency))
        .set("walk_refs", hist(&t.walk_refs))
        .set("data_latency", hist(&t.data_latency))
        .set("counters", counters)
        .set(
            "tlb_rates",
            Json::obj()
                .set("l1", Json::F64(ratio(c(Counter::TlbL1Hits), tlb_total)))
                .set("stlb", Json::F64(ratio(c(Counter::TlbStlbHits), tlb_total)))
                .set("miss", Json::F64(ratio(c(Counter::TlbMisses), tlb_total))),
        )
        .set(
            "pwc_rates",
            Json::obj()
                .set("l2", Json::F64(ratio(c(Counter::PwcL2Hits), pwc_total)))
                .set("l3", Json::F64(ratio(c(Counter::PwcL3Hits), pwc_total)))
                .set("l4", Json::F64(ratio(c(Counter::PwcL4Hits), pwc_total)))
                .set("miss", Json::F64(ratio(c(Counter::PwcMisses), pwc_total))),
        )
        .set(
            "series",
            Json::Arr(
                t.series
                    .samples()
                    .iter()
                    .map(|s| {
                        Json::obj()
                            .set("at", Json::U64(s.at))
                            .set("frag_index", Json::F64(s.frag_index))
                            .set("rss_frames", Json::U64(s.rss_frames))
                    })
                    .collect(),
            ),
        )
}

/// Escape a string for embedding in JSON.
fn json_escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.render(&mut s, 0);
        f.write_str(&s)
    }
}

impl Json {
    fn render(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, n: usize| {
            for _ in 0..n {
                out.push_str("  ");
            }
        };
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::F64(v) if v.is_finite() => out.push_str(&format!("{v}")),
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => json_escape(s, out),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.render(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    json_escape(k, out);
                    out.push_str(": ");
                    v.render(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Write the rendering to `<results_dir>/<name>.json` (see
    /// [`results_dir`]), creating the directory as needed (the JSON
    /// sibling of [`Table::write_csv`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_json(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        self.write_json_in(&results_dir(), name)
    }

    /// Write the rendering to `<dir>/<name>.json`, creating the
    /// directory as needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_json_in(
        &self,
        dir: &std::path::Path,
        name: &str,
    ) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, format!("{self}\n"))?;
        Ok(path)
    }
}

/// Format a float to two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float as a multiplier ("1.58x").
pub fn speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Format a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Render Table 7 rows (schema `dmt-table7-v1`): one object per
/// (environment, design) node with its summed engine statistics, the
/// multi-tenant event counters, end-of-run fragmentation, and — when
/// the runner captured it — the node-level telemetry block.
pub fn table7_json(rows: &[crate::experiments::Table7Row]) -> Json {
    Json::obj()
        .set("schema", Json::Str("dmt-table7-v1".into()))
        .set(
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        let s = &r.stats;
                        let mut row = Json::obj()
                            .set("env", Json::Str(r.env.name().into()))
                            .set("design", Json::Str(s.design.name().into()))
                            .set("tenants", Json::U64(s.tenants.len() as u64))
                            .set("accesses", Json::U64(s.node.accesses))
                            .set("walks", Json::U64(s.node.walks))
                            .set("walk_cycles", Json::U64(s.node.walk_cycles))
                            .set("avg_walk_latency", Json::F64(s.node.avg_walk_latency()))
                            .set("pw_speedup", Json::F64(r.pw_speedup))
                            .set("context_switches", Json::U64(s.context_switches))
                            .set("tagged_flushes", Json::U64(s.tagged_flushes))
                            .set(
                                "cross_tenant_shootdowns",
                                Json::U64(s.cross_tenant_shootdowns),
                            )
                            .set("frag_final", Json::F64(s.frag_final))
                            .set("coverage", Json::F64(s.mean_coverage()));
                        if let Some(t) = &r.telemetry {
                            row = row.set("telemetry", telemetry_json(t));
                        }
                        row
                    })
                    .collect(),
            ),
        )
}

/// Console rendering of Table 7: one row per (environment, design)
/// node, with the walk-latency comparison and the multi-tenant event
/// counters.
pub fn table7_table(rows: &[crate::experiments::Table7Row]) -> Table {
    let mut t = Table::new(
        format!(
            "Table 7 — multi-tenant node ({} tenants): page-walk speedup over vanilla",
            rows.first().map_or(0, |r| r.stats.tenants.len())
        ),
        &[
            "env",
            "design",
            "walk lat",
            "pw",
            "switches",
            "tag flushes",
            "xt shootdowns",
            "frag",
            "coverage",
        ],
    );
    for r in rows {
        let s = &r.stats;
        t.row(vec![
            r.env.name().to_string(),
            s.design.name().to_string(),
            f2(s.node.avg_walk_latency()),
            speedup(r.pw_speedup),
            s.context_switches.to_string(),
            s.tagged_flushes.to_string(),
            s.cross_tenant_shootdowns.to_string(),
            f2(s.frag_final),
            pct(s.mean_coverage()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "12345".into()]);
        let s = t.to_string();
        assert!(s.contains("Demo"));
        assert!(s.contains("| alpha |"));
        // All lines between borders have equal width.
        let widths: std::collections::HashSet<usize> = s.lines().skip(1).map(|l| l.len()).collect();
        assert_eq!(widths.len(), 1, "{s}");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_rendering_escapes() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["plain".into(), "with,comma".into()]);
        t.row(vec!["quote\"d".into(), "y".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\nplain,\"with,comma\"\n\"quote\"\"d\",y\n");
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(speedup(1.5), "1.50x");
        assert_eq!(pct(0.421), "42.1%");
    }

    #[test]
    fn json_renders_ordered_and_escaped() {
        let j = Json::obj()
            .set("name", Json::Str("a\"b\n".into()))
            .set("count", Json::U64(3))
            .set("ratio", Json::F64(0.5))
            .set("flag", Json::Bool(true))
            .set("items", Json::Arr(vec![Json::U64(1), Json::U64(2)]))
            .set("empty", Json::Arr(vec![]))
            .set("nan", Json::F64(f64::NAN));
        let s = j.to_string();
        // Keys render in insertion order.
        let order: Vec<usize> = ["\"name\"", "\"count\"", "\"ratio\"", "\"flag\""]
            .iter()
            .map(|k| s.find(k).unwrap())
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{s}");
        assert!(s.contains("\"a\\\"b\\n\""), "{s}");
        assert!(s.contains("\"ratio\": 0.5"), "{s}");
        assert!(s.contains("\"nan\": null"), "{s}");
        assert!(s.contains("\"empty\": []"), "{s}");
        // Balanced braces/brackets.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }
}
