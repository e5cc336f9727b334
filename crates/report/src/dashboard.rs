//! The self-contained census dashboard: one static `dashboard.html` with
//! zero external dependencies — no scripts, no fonts, no network — so a
//! nightly CI artifact opens identically on any machine, forever.
//!
//! Panels (each degrades to a "no data" note when its input is absent):
//!
//! 1. **Trend sparklines** — one inline-SVG polyline per perf-gate
//!    workload from the [`RunStore`] history series, drift-flagged red
//!    when a [`TrendReport`] marks the workload;
//! 2. **Winner map** — the paper's central artifact: the optimal-shape
//!    census over the (P_r, R_r) ratio plane as a heat grid, one grid per
//!    (topology, algorithm) pair, parsed from
//!    `results/optimal_shape_map.csv` ([`WinnerMap`]);
//! 3. **Timeline** — per-processor Gantt bars from
//!    [`Timeline`](crate::timeline::Timeline) segments;
//! 4. **Push funnel** — plan attempts → accepted/rejected bars from
//!    [`Analysis`](crate::analyze::Analysis);
//! 5. **Triage verdict** — the [`TriageReport`](crate::triage::TriageReport)
//!    headline and per-workload explanations;
//! 6. **Optimality gap** — reserved: renders a placeholder until the
//!    Red-Blue Pebbling lower bound (ROADMAP item 3) lands, at which
//!    point measured-vs-bound ratios drop straight into this panel.
//!
//! Rendering is a pure function of the inputs: no clock, no randomness,
//! sorted-map iteration, and fixed-precision float formatting — the
//! golden test asserts byte-identical HTML for identical `FakeClock`
//! inputs. The "as of" stamp is the newest history entry's `git_rev`,
//! *read from the inputs*, never computed at render time.

use crate::analyze::Analysis;
use crate::store::RunStore;
use crate::timeline::Timeline;
use crate::trend::TrendReport;
use crate::triage::TriageReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One row of the committed optimal-shape census CSV.
#[derive(Clone, Debug, PartialEq)]
pub struct WinnerCell {
    /// P's relative speed.
    pub p_r: u64,
    /// R's relative speed.
    pub r_r: u64,
    /// Winning candidate code (`SC`, `RC`, `SR`, `BR`, `LR`, `TR`).
    pub winner: String,
    /// Predicted execution seconds for the winner.
    pub predicted_s: f64,
}

/// The parsed winner map: cells grouped by `(topology, algorithm)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WinnerMap {
    /// `(topology, algorithm)` → cells, in CSV order.
    pub grids: BTreeMap<(String, String), Vec<WinnerCell>>,
    /// CSV lines skipped (malformed or wrong column count).
    pub skipped_lines: usize,
}

impl WinnerMap {
    /// Parse the committed census CSV
    /// (`topology,algorithm,p_r,r_r,winner,predicted_s`), leniently: bad
    /// lines are counted, never fatal.
    pub fn parse_csv(text: &str) -> WinnerMap {
        let mut map = WinnerMap::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || (i == 0 && line.starts_with("topology,")) {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            let parsed = (|| -> Option<(String, String, WinnerCell)> {
                if fields.len() != 6 {
                    return None;
                }
                Some((
                    fields[0].to_string(),
                    fields[1].to_string(),
                    WinnerCell {
                        p_r: fields[2].parse().ok()?,
                        r_r: fields[3].parse().ok()?,
                        winner: fields[4].to_string(),
                        predicted_s: fields[5].parse().ok()?,
                    },
                ))
            })();
            match parsed {
                Some((topology, algorithm, cell)) => {
                    map.grids
                        .entry((topology, algorithm))
                        .or_default()
                        .push(cell);
                }
                None => map.skipped_lines += 1,
            }
        }
        map
    }

    /// Total cells across all grids.
    pub fn cells(&self) -> usize {
        self.grids.values().map(Vec::len).sum()
    }
}

/// Everything the dashboard can draw. Every field except the store is
/// optional; missing inputs render as explicit "no data" notes.
#[derive(Default)]
pub struct DashboardInputs {
    /// History series and manifest inventory.
    pub store: RunStore,
    /// Drift verdicts used to flag sparklines (usually
    /// [`crate::trend::analyze`] over `store.history`).
    pub trend: Option<TrendReport>,
    /// Per-processor execution timeline.
    pub timeline: Option<Timeline>,
    /// Push-funnel aggregation.
    pub analysis: Option<Analysis>,
    /// The census winner map.
    pub winners: Option<WinnerMap>,
    /// The triage verdict.
    pub triage: Option<TriageReport>,
}

/// Fixed fill colors per candidate code (the paper's six shapes), keyed
/// so every build renders the same bytes. Unknown codes get gray.
fn winner_color(code: &str) -> &'static str {
    match code {
        "SC" => "#4e79a7",
        "RC" => "#f28e2b",
        "SR" => "#76b7b2",
        "BR" => "#e15759",
        "LR" => "#59a14f",
        "TR" => "#edc948",
        _ => "#bab0ab",
    }
}

/// Fixed fill colors per execution segment kind.
fn segment_color(kind: &str) -> &'static str {
    match kind {
        "compute" => "#59a14f",
        "send" => "#4e79a7",
        "recv-wait" => "#f28e2b",
        "checkpoint" => "#b07aa1",
        "blocked" => "#e15759",
        _ => "#bab0ab",
    }
}

/// Minimal HTML escaping for text from input files.
fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

fn panel(out: &mut String, title: &str, body: &str) {
    let _ = writeln!(
        out,
        "<section class=\"panel\"><h2>{}</h2>{}</section>",
        html_escape(title),
        body
    );
}

fn no_data(what: &str) -> String {
    format!("<p class=\"nodata\">no data: {}</p>", html_escape(what))
}

/// One sparkline: an inline SVG polyline over the series points, scaled
/// to the panel box with 1-decimal fixed coordinates.
fn sparkline_svg(points: &[u64], drifted: bool) -> String {
    const W: f64 = 240.0;
    const H: f64 = 40.0;
    const PAD: f64 = 3.0;
    if points.is_empty() {
        return String::new();
    }
    let min = *points.iter().min().unwrap_or(&0);
    let max = *points.iter().max().unwrap_or(&0);
    let span = (max - min).max(1) as f64;
    let x_of = |i: usize| -> f64 {
        if points.len() == 1 {
            W / 2.0
        } else {
            PAD + (W - 2.0 * PAD) * i as f64 / (points.len() - 1) as f64
        }
    };
    let y_of = |v: u64| -> f64 { H - PAD - (H - 2.0 * PAD) * (v - min) as f64 / span };
    let stroke = if drifted { "#e15759" } else { "#4e79a7" };
    let mut svg =
        format!("<svg class=\"spark\" width=\"{W}\" height=\"{H}\" viewBox=\"0 0 {W} {H}\">");
    if points.len() == 1 {
        let _ = write!(
            svg,
            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"2\" fill=\"{stroke}\"/>",
            x_of(0),
            y_of(points[0])
        );
    } else {
        let coords: Vec<String> = points
            .iter()
            .enumerate()
            .map(|(i, v)| format!("{:.1},{:.1}", x_of(i), y_of(*v)))
            .collect();
        let _ = write!(
            svg,
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{stroke}\" stroke-width=\"1.5\"/>",
            coords.join(" ")
        );
        // Emphasize the newest point: that is what drifted (or not).
        let last = points.len() - 1;
        let _ = write!(
            svg,
            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"2.5\" fill=\"{stroke}\"/>",
            x_of(last),
            y_of(points[last])
        );
    }
    svg.push_str("</svg>");
    svg
}

fn trend_panel(inputs: &DashboardInputs) -> String {
    if inputs.store.workloads.is_empty() {
        return no_data("results/bench_history.jsonl (run perf_gate to append history)");
    }
    let drifted_of = |name: &str| -> Option<&crate::trend::WorkloadTrend> {
        inputs
            .trend
            .as_ref()
            .and_then(|t| t.workloads.iter().find(|w| w.name == name))
    };
    let mut body = String::from("<table class=\"trend\">");
    body.push_str(
        "<tr><th>workload</th><th>history</th><th>latest ns</th><th>ratio</th><th></th></tr>",
    );
    for (name, series) in &inputs.store.workloads {
        let medians: Vec<u64> = series.points.iter().map(|p| p.median_nanos).collect();
        let verdict = drifted_of(name);
        let drifted = verdict.map(|w| w.drifted).unwrap_or(false);
        let ratio = verdict
            .map(|w| format!("{:.2}x", w.ratio))
            .unwrap_or_else(|| "-".to_string());
        let flag = if drifted {
            "<span class=\"drift\">DRIFT</span>"
        } else {
            "<span class=\"ok\">ok</span>"
        };
        let _ = write!(
            body,
            "<tr><td>{}</td><td>{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td><td>{}</td></tr>",
            html_escape(name),
            sparkline_svg(&medians, drifted),
            series.latest_nanos().unwrap_or(0),
            ratio,
            flag
        );
    }
    body.push_str("</table>");
    body
}

fn winner_panel(winners: Option<&WinnerMap>) -> String {
    let Some(map) = winners else {
        return no_data("results/optimal_shape_map.csv (run table_optimal_shapes)");
    };
    if map.grids.is_empty() {
        return no_data("winner map CSV parsed to zero cells");
    }
    let mut body = String::new();
    // Shared legend over every code that actually appears.
    let mut codes: Vec<&str> = map
        .grids
        .values()
        .flatten()
        .map(|c| c.winner.as_str())
        .collect();
    codes.sort_unstable();
    codes.dedup();
    body.push_str("<p class=\"legend\">");
    for code in &codes {
        let _ = write!(
            body,
            "<span class=\"chip\" style=\"background:{}\"></span>{} ",
            winner_color(code),
            html_escape(code)
        );
    }
    body.push_str("</p>");
    for ((topology, algorithm), cells) in &map.grids {
        let mut p_axis: Vec<u64> = cells.iter().map(|c| c.p_r).collect();
        p_axis.sort_unstable();
        p_axis.dedup();
        let mut r_axis: Vec<u64> = cells.iter().map(|c| c.r_r).collect();
        r_axis.sort_unstable();
        r_axis.dedup();
        let cell_of = |p: u64, r: u64| cells.iter().find(|c| c.p_r == p && c.r_r == r);
        let _ = write!(
            body,
            "<h3>{} / {}</h3><table class=\"heat\"><tr><th>P_r \\ R_r</th>",
            html_escape(topology),
            html_escape(algorithm)
        );
        for r in &r_axis {
            let _ = write!(body, "<th>{r}</th>");
        }
        body.push_str("</tr>");
        for p in &p_axis {
            let _ = write!(body, "<tr><th>{p}</th>");
            for r in &r_axis {
                match cell_of(*p, *r) {
                    Some(cell) => {
                        let _ = write!(
                            body,
                            "<td class=\"cell\" style=\"background:{}\" \
                             title=\"P_r={p} R_r={r} winner={} predicted={:.6}s\">{}</td>",
                            winner_color(&cell.winner),
                            html_escape(&cell.winner),
                            cell.predicted_s,
                            html_escape(&cell.winner)
                        );
                    }
                    None => body.push_str("<td class=\"cell empty\"></td>"),
                }
            }
            body.push_str("</tr>");
        }
        body.push_str("</table>");
    }
    body
}

fn timeline_panel(timeline: Option<&Timeline>) -> String {
    let Some(tl) = timeline else {
        return no_data("ExecSegment event stream (run exec_trace)");
    };
    if tl.is_empty() {
        return no_data("event stream carried no ExecSegment events");
    }
    const W: f64 = 760.0;
    const ROW: f64 = 22.0;
    const LABEL: f64 = 40.0;
    let first = tl.segments.iter().map(|s| s.start_nanos).min().unwrap_or(0);
    let makespan = tl.makespan_nanos().max(1) as f64;
    let mut workers: Vec<&String> = tl.segments.iter().map(|s| &s.worker).collect();
    workers.sort();
    workers.dedup();
    let h = ROW * workers.len() as f64;
    let mut body = format!(
        "<svg class=\"gantt\" width=\"{:.0}\" height=\"{:.0}\" viewBox=\"0 0 {:.0} {:.0}\">",
        W + LABEL,
        h,
        W + LABEL,
        h
    );
    for (row, worker) in workers.iter().enumerate() {
        let y = row as f64 * ROW;
        let _ = write!(
            body,
            "<text x=\"0\" y=\"{:.1}\" font-size=\"12\">{}</text>",
            y + ROW * 0.7,
            html_escape(worker)
        );
        for seg in tl.segments.iter().filter(|s| &s.worker == *worker) {
            let x = LABEL + W * (seg.start_nanos - first) as f64 / makespan;
            let w = (W * seg.nanos() as f64 / makespan).max(0.5);
            let _ = write!(
                body,
                "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" \
                 fill=\"{}\"><title>{} {} step {} [{} - {}] ns</title></rect>",
                x,
                y + 2.0,
                w,
                ROW - 6.0,
                segment_color(&seg.kind),
                html_escape(&seg.kind),
                html_escape(&seg.peer),
                seg.step,
                seg.start_nanos,
                seg.end_nanos
            );
        }
    }
    body.push_str("</svg>");
    let _ = write!(
        body,
        "<p>{} segments, makespan {} ns</p>",
        tl.segments.len(),
        tl.makespan_nanos()
    );
    body
}

fn funnel_panel(analysis: Option<&Analysis>) -> String {
    let Some(a) = analysis else {
        return no_data("DFA event stream (run fig5_archetype_census or fig7_example_run)");
    };
    let f = &a.funnel;
    if f.attempts() == 0 && f.runs == 0 {
        return no_data("event stream carried no push-funnel events");
    }
    let max = f.attempts().max(f.runs).max(1) as f64;
    let bar = |label: &str, value: u64, color: &str| -> String {
        let w = 100.0 * value as f64 / max;
        format!(
            "<div class=\"bar\"><span class=\"barlabel\">{}</span>\
             <span class=\"barfill\" style=\"width:{:.1}%;background:{}\"></span>\
             <span class=\"barnum\">{}</span></div>",
            html_escape(label),
            w,
            color,
            value
        )
    };
    let mut body = String::new();
    body.push_str(&bar("runs", f.runs, "#bab0ab"));
    body.push_str(&bar("attempts", f.attempts(), "#4e79a7"));
    body.push_str(&bar("accepted", f.accepted, "#59a14f"));
    body.push_str(&bar("rejected", f.rejected, "#e15759"));
    let _ = write!(body, "<p>total dVoC {}</p>", f.delta_voc_total);
    body
}

fn triage_panel(triage: Option<&TriageReport>) -> String {
    let Some(t) = triage else {
        return no_data("triage report (run bench_trend with event streams)");
    };
    let mut body = format!(
        "<p class=\"{}\">{}</p>",
        if t.drift { "drift" } else { "ok" },
        html_escape(&t.headline)
    );
    if !t.workloads.is_empty() {
        body.push_str("<ul>");
        for w in &t.workloads {
            let _ = write!(
                body,
                "<li><b>{}</b>: {}</li>",
                html_escape(&w.workload),
                html_escape(&w.verdict)
            );
        }
        body.push_str("</ul>");
    }
    body
}

/// Render the full dashboard HTML. Pure: identical inputs produce
/// byte-identical output.
pub fn render_dashboard(inputs: &DashboardInputs) -> String {
    let rev = inputs.store.latest_git_rev().unwrap_or("unknown");
    let mut out = String::from(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>hetmmm census dashboard</title>\n<style>\n\
         body{font-family:system-ui,sans-serif;margin:1.5em;background:#fafafa;color:#222}\n\
         .panel{background:#fff;border:1px solid #ddd;border-radius:6px;\
         padding:1em 1.2em;margin-bottom:1.2em}\n\
         h1{font-size:1.3em}h2{font-size:1.05em;border-bottom:1px solid #eee;\
         padding-bottom:.3em}h3{font-size:.95em}\n\
         .nodata{color:#888;font-style:italic}\n\
         .drift{color:#e15759;font-weight:bold}.ok{color:#59a14f}\n\
         table{border-collapse:collapse}td,th{padding:2px 8px;font-size:.85em}\n\
         td.num{text-align:right;font-variant-numeric:tabular-nums}\n\
         table.heat td.cell{width:2.2em;text-align:center;color:#fff;\
         font-size:.7em;border:1px solid #fff}\n\
         table.heat td.empty{background:#eee}\n\
         .chip{display:inline-block;width:.9em;height:.9em;margin:0 .3em 0 .8em;\
         border-radius:2px;vertical-align:middle}\n\
         .bar{display:flex;align-items:center;margin:2px 0}\n\
         .barlabel{width:6em;font-size:.85em}\n\
         .barfill{display:inline-block;height:.9em;border-radius:2px}\n\
         .barnum{margin-left:.5em;font-size:.85em}\n\
         .spark{vertical-align:middle}\n\
         </style>\n</head>\n<body>\n",
    );
    let _ = write!(
        out,
        "<h1>hetmmm census dashboard</h1>\n<p>as of rev {} \
         ({} history entries, {} manifest runs, {} skipped input lines)</p>\n",
        html_escape(rev),
        inputs.store.history.len(),
        inputs.store.total_runs(),
        inputs.store.skipped_lines
    );
    panel(&mut out, "Bench trend", &trend_panel(inputs));
    panel(
        &mut out,
        "Optimal-shape winner map",
        &winner_panel(inputs.winners.as_ref()),
    );
    panel(
        &mut out,
        "Execution timeline",
        &timeline_panel(inputs.timeline.as_ref()),
    );
    panel(
        &mut out,
        "Push funnel",
        &funnel_panel(inputs.analysis.as_ref()),
    );
    panel(
        &mut out,
        "Regression triage",
        &triage_panel(inputs.triage.as_ref()),
    );
    panel(
        &mut out,
        "Optimality gap",
        "<p class=\"nodata\">reserved: measured makespan vs the Red-Blue Pebbling \
         I/O lower bound lands here (ROADMAP item 3)</p>",
    );
    out.push_str("</body>\n</html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::EventLog;
    use crate::trend::analyze;
    use hetmmm_obs::{EventKind, EventRecord, SCHEMA_VERSION};

    fn history(medians: &[u64]) -> String {
        medians
            .iter()
            .enumerate()
            .map(|(i, m)| {
                format!(
                    "{{\"v\":1,\"git_rev\":\"rev{i}\",\"unix_secs\":{i},\"k\":3,\
                     \"medians\":[[\"w\",{m}]],\"counters\":[]}}"
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn seg(worker: &str, kind: &str, start: u64, end: u64) -> EventRecord {
        EventRecord {
            v: SCHEMA_VERSION,
            ts_nanos: start,
            event: EventKind::ExecSegment {
                worker: worker.into(),
                kind: kind.into(),
                peer: String::new(),
                step: 0,
                start_nanos: start,
                end_nanos: end,
            },
        }
    }

    fn full_inputs() -> DashboardInputs {
        let mut store = RunStore::default();
        store.ingest_history_str(&history(&[100, 100, 100, 250]));
        let trend = analyze(&store.history, 10, 1.5);
        let triage = crate::triage::triage(&trend, None, None);
        let records = vec![
            seg("P", "compute", 0, 40),
            seg("R", "send", 0, 10),
            seg("R", "compute", 10, 50),
        ];
        let timeline = Timeline::from_events(&records);
        let analysis = Analysis::from_events(&EventLog {
            records: vec![EventRecord {
                v: SCHEMA_VERSION,
                ts_nanos: 0,
                event: EventKind::DfaPush {
                    step: 1,
                    proc: "R".into(),
                    dir: "d".into(),
                    push_type: 1,
                    delta_voc: -4,
                },
            }],
            skipped_lines: 0,
        });
        let winners = WinnerMap::parse_csv(
            "topology,algorithm,p_r,r_r,winner,predicted_s\n\
             full,SCB,12,1,SC,0.000903\n\
             full,SCB,12,2,BR,0.000979\n\
             full,SCB,6,1,SC,0.000800\n",
        );
        DashboardInputs {
            store,
            trend: Some(trend),
            timeline: Some(timeline),
            analysis: Some(analysis),
            winners: Some(winners),
            triage: Some(triage),
        }
    }

    #[test]
    fn winner_map_parses_header_rows_and_counts_bad_lines() {
        let map = WinnerMap::parse_csv(
            "topology,algorithm,p_r,r_r,winner,predicted_s\n\
             full,SCB,12,1,SC,0.000903\n\
             broken,row\n\
             ring,RCB,3,2,TR,0.5\n",
        );
        assert_eq!(map.cells(), 2);
        assert_eq!(map.skipped_lines, 1);
        let cells = &map.grids[&("full".to_string(), "SCB".to_string())];
        assert_eq!(cells[0].winner, "SC");
        assert_eq!(cells[0].p_r, 12);
    }

    #[test]
    fn all_panels_render_with_full_inputs() {
        let html = render_dashboard(&full_inputs());
        for needle in [
            "Bench trend",
            "Optimal-shape winner map",
            "Execution timeline",
            "Push funnel",
            "Regression triage",
            "Optimality gap",
            "<polyline",
            "DRIFT",
            "class=\"heat\"",
            "class=\"gantt\"",
            "accepted",
            "triage:",
            "Red-Blue Pebbling",
            "as of rev rev3",
        ] {
            assert!(html.contains(needle), "missing {needle:?}");
        }
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>\n"));
    }

    #[test]
    fn empty_inputs_render_no_data_notes_not_errors() {
        let html = render_dashboard(&DashboardInputs::default());
        assert!(html.contains("as of rev unknown"), "{}", &html[..200]);
        assert_eq!(html.matches("class=\"nodata\"").count(), 6);
    }

    #[test]
    fn rendering_is_byte_identical_for_identical_inputs() {
        let a = render_dashboard(&full_inputs());
        let b = render_dashboard(&full_inputs());
        assert_eq!(a, b);
    }

    #[test]
    fn sparkline_handles_flat_and_single_series() {
        // Flat series: span clamps to 1, no division by zero.
        let flat = sparkline_svg(&[5, 5, 5], false);
        assert!(flat.contains("<polyline"), "{flat}");
        let single = sparkline_svg(&[5], false);
        assert!(single.contains("<circle"), "{single}");
        assert_eq!(sparkline_svg(&[], false), "");
    }
}
