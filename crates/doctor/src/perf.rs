//! `perf report` / `perf annotate` over the simulator's symbol
//! attribution.
//!
//! [`AttributionSection`] is the serializable top-N slice of an
//! [`AttributedCounters`] table that [`crate::RunReport`] embeds (and
//! [`crate::diff_reports`] gates per-symbol). [`render_perf_report`]
//! prints the differential baseline/Propeller/BOLT top-N table, and
//! [`render_annotate`] walks one function's laid-out blocks with
//! per-block events joined against the Ext-TSP layout provenance, so a
//! regressed symbol links straight to the layout decision that moved
//! it.

use propeller_sim::{AttributedCounters, CounterSet, Event, SymbolAttribution};
use propeller_telemetry::json::{arr, obj, FromJson, JsonValue, Reader, SchemaError};
use propeller_wpa::FunctionProvenance;
use std::fmt::Write as _;

/// One symbol's counters, detached from the block detail — the
/// report-embeddable row.
#[derive(Clone, PartialEq, Debug)]
pub struct SymbolCounters {
    /// Symbol name.
    pub symbol: String,
    /// Attributed events.
    pub counters: CounterSet,
}

/// The top-N attributed rows a [`crate::RunReport`] embeds. Rows are
/// ordered by attributed cycles descending (ties by name), so two
/// reports of the same run serialize identically.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct AttributionSection {
    /// Per-symbol rows, hottest first.
    pub symbols: Vec<SymbolCounters>,
}

impl AttributionSection {
    /// Extracts the `top_n` hottest symbols (by cycles) from a full
    /// attribution table.
    pub fn from_attribution(attr: &AttributedCounters, top_n: usize) -> AttributionSection {
        AttributionSection {
            symbols: attr
                .top_by(Event::Cycles, top_n)
                .into_iter()
                .map(|i| SymbolCounters {
                    symbol: attr.symbols[i].name.clone(),
                    counters: attr.symbols[i].total,
                })
                .collect(),
        }
    }

    /// True when no rows are present (attribution was off or nothing
    /// was hot).
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The row for `symbol`, if present.
    pub fn get(&self, symbol: &str) -> Option<&SymbolCounters> {
        self.symbols.iter().find(|s| s.symbol == symbol)
    }

    /// Serializes as a JSON array of per-symbol objects: the symbol,
    /// then one member per [`Event`] in [`Event::ALL`] order.
    pub fn to_json(&self) -> JsonValue {
        arr(&self.symbols, |s| {
            let events = Event::ALL.map(|e| (e.name(), e.get(&s.counters).into()));
            obj([("symbol", s.symbol.as_str().into())]
                .into_iter()
                .chain(events))
        })
    }
}

/// Reads back what [`AttributionSection::to_json`] wrote: a row member
/// that is absent or not a count is an error naming it.
impl FromJson for AttributionSection {
    fn from_json(r: Reader<'_>) -> Result<AttributionSection, SchemaError> {
        let symbols = r.to_arr(|row| {
            let mut counters = CounterSet::default();
            for e in Event::ALL {
                *e.field_mut(&mut counters) = row.get(e.name())?;
            }
            Ok(SymbolCounters {
                symbol: row.get("symbol")?,
                counters,
            })
        })?;
        Ok(AttributionSection { symbols })
    }
}

fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 * 100.0 / total as f64
    }
}

fn delta_pct(base: u64, other: u64) -> f64 {
    if base == 0 {
        if other == 0 {
            0.0
        } else {
            100.0
        }
    } else {
        (other as f64 - base as f64) / base as f64 * 100.0
    }
}

/// Renders the differential `perf report` table for one event: the
/// `top_n` hottest symbols of the *baseline* attribution, one column
/// per variant with the per-symbol delta against baseline. The union
/// of symbols that are top-N in any non-baseline variant but not in
/// the baseline's top-N is appended, so a symbol a variant made hot
/// still shows up. A totals row closes the table; its deltas are the
/// aggregate (whole-program) movements, so per-symbol deltas can be
/// read against them.
pub fn render_perf_report(
    event: Event,
    top_n: usize,
    baseline: (&str, &AttributedCounters),
    variants: &[(&str, &AttributedCounters)],
) -> String {
    let (base_name, base) = baseline;
    let base_total = event.get(&base.totals());

    // Baseline top-N first, then symbols only the variants made hot.
    let mut rows: Vec<String> = base
        .top_by(event, top_n)
        .into_iter()
        .map(|i| base.symbols[i].name.clone())
        .collect();
    for (_, attr) in variants {
        for i in attr.top_by(event, top_n) {
            let name = &attr.symbols[i].name;
            if !rows.iter().any(|r| r == name) {
                rows.push(name.clone());
            }
        }
    }

    let val = |attr: &AttributedCounters, sym: &str| -> u64 {
        attr.symbol(sym).map_or(0, |s| event.get(&s.total))
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# event: {} · top {} symbols by {}",
        event.name(),
        top_n,
        base_name
    );
    let _ = write!(out, "{:<24} {:>14} {:>8}", "symbol", base_name, "%");
    for (name, _) in variants {
        let _ = write!(out, " {:>14} {:>9}", name, "Δ%");
    }
    out.push('\n');
    for sym in &rows {
        let bv = val(base, sym);
        let _ = write!(out, "{:<24} {:>14} {:>7.2}%", sym, bv, pct(bv, base_total));
        for (_, attr) in variants {
            let ov = val(attr, sym);
            let _ = write!(out, " {:>14} {:>+8.2}%", ov, delta_pct(bv, ov));
        }
        out.push('\n');
    }
    let _ = write!(out, "{:<24} {:>14} {:>7.2}%", "TOTAL", base_total, 100.0);
    for (_, attr) in variants {
        let ot = event.get(&attr.totals());
        let _ = write!(out, " {:>14} {:>+8.2}%", ot, delta_pct(base_total, ot));
    }
    out.push('\n');
    out
}

/// The cluster of `prov` that contains block `bi`, as `(cluster index,
/// cluster symbol, cold)`.
fn cluster_of(prov: &FunctionProvenance, bi: u32) -> Option<(usize, &str, bool)> {
    prov.clusters
        .iter()
        .enumerate()
        .find(|(_, c)| c.blocks.contains(&bi))
        .map(|(i, c)| (i, c.symbol.as_str(), c.cold))
}

/// Renders the `perf annotate` view of one function: its blocks in
/// laid-out (final address) order, each with its attributed events and
/// — when layout provenance is available — the Ext-TSP cluster that
/// placed it, so an event spike points at the layout decision behind
/// it.
pub fn render_annotate(
    sym: &SymbolAttribution,
    event: Event,
    prov: Option<&FunctionProvenance>,
) -> String {
    let mut out = String::new();
    let total = event.get(&sym.total);
    let _ = writeln!(
        out,
        "{} · {} {} · {} cycles · ipc {:.2}",
        sym.name,
        total,
        event.name(),
        sym.total.cycles,
        sym.total.ipc()
    );
    if let Some(p) = prov {
        let _ = writeln!(
            out,
            "  ext-tsp: {} clusters, score {:.1} (input order {:.1}){}, {} merge steps",
            p.clusters.len(),
            p.layout_score,
            p.input_score,
            if p.used_input_order {
                ", kept input order"
            } else {
                ""
            },
            p.merge_gains.len()
        );
    }
    let _ = writeln!(
        out,
        "  {:>12} {:>6} {:>10} {:>10} {:>8} {:>8} {:>8}  cluster",
        "addr",
        "block",
        event.name(),
        "cycles",
        "l1i",
        "itlb",
        "baclears"
    );
    // Laid-out order: the final addresses the linker assigned.
    let mut order: Vec<usize> = (0..sym.blocks.len()).collect();
    order.sort_by_key(|&i| sym.blocks[i].addr);
    for bi in order {
        let b = &sym.blocks[bi];
        let cluster = prov
            .and_then(|p| cluster_of(p, bi as u32))
            .map(|(i, s, cold)| format!("#{i} {s}{}", if cold { " [cold]" } else { "" }))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "  {:>#12x} {:>6} {:>10} {:>10} {:>8} {:>8} {:>8}  {}",
            b.addr,
            bi,
            event.get(&b.counters),
            b.counters.cycles,
            b.counters.l1i_misses,
            b.counters.itlb_misses,
            b.counters.baclears,
            cluster
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_sim::BlockAttribution;
    use propeller_telemetry::json::read_doc;
    use propeller_wpa::ClusterProvenance;

    fn parse(text: &str) -> Result<AttributionSection, SchemaError> {
        read_doc("attribution", text, AttributionSection::from_json)
    }

    fn attr(rows: &[(&str, u64, u64)]) -> AttributedCounters {
        AttributedCounters {
            symbols: rows
                .iter()
                .map(|&(name, cycles, l1i)| SymbolAttribution {
                    name: name.into(),
                    total: CounterSet {
                        cycles,
                        insts: cycles / 2,
                        l1i_misses: l1i,
                        ..CounterSet::default()
                    },
                    blocks: vec![],
                })
                .collect(),
        }
    }

    #[test]
    fn section_takes_hottest_by_cycles() {
        let a = attr(&[("cold", 0, 0), ("warm", 50, 1), ("hot", 500, 9)]);
        let s = AttributionSection::from_attribution(&a, 2);
        assert_eq!(s.symbols.len(), 2);
        assert_eq!(s.symbols[0].symbol, "hot");
        assert_eq!(s.symbols[1].symbol, "warm");
        assert!(s.get("hot").is_some());
        assert!(s.get("cold").is_none());
    }

    #[test]
    fn section_json_round_trips() {
        let s = AttributionSection::from_attribution(&attr(&[("a", 100, 3), ("b", 40, 1)]), 10);
        let back = parse(&s.to_json().to_string_pretty()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn section_json_rejects_malformed_rows() {
        let err = |text| parse(text).unwrap_err().to_string();
        assert_eq!(err("3"), "expected an array at `attribution`");
        assert_eq!(
            err(r#"[{"symbol": "x"}]"#),
            "missing `attribution[0].cycles`"
        );
        assert_eq!(
            err(r#"[{"symbol": "x", "cycles": 1.9}]"#),
            "expected an integer in 0..=18446744073709551615 at `attribution[0].cycles`"
        );
    }

    #[test]
    fn perf_report_ranks_by_baseline_and_shows_deltas() {
        let base = attr(&[("alpha", 1000, 50), ("beta", 400, 10)]);
        let prop = attr(&[("alpha", 600, 20), ("beta", 380, 9)]);
        let table = render_perf_report(
            Event::Cycles,
            5,
            ("baseline", &base),
            &[("propeller", &prop)],
        );
        let lines: Vec<&str> = table.lines().collect();
        // header comment + column header + alpha + beta + TOTAL
        assert_eq!(lines.len(), 5);
        assert!(lines[2].starts_with("alpha"));
        assert!(lines[2].contains("-40.00%"));
        assert!(lines[3].starts_with("beta"));
        assert!(lines[4].starts_with("TOTAL"));
        assert!(lines[4].contains("1400"));
    }

    #[test]
    fn perf_report_appends_variant_only_symbols() {
        let base = attr(&[("alpha", 1000, 0)]);
        let bolt = attr(&[("gamma", 700, 0)]);
        let table = render_perf_report(Event::Cycles, 3, ("baseline", &base), &[("bolt", &bolt)]);
        assert!(table.contains("gamma"));
    }

    #[test]
    fn annotate_walks_address_order_with_clusters() {
        let sym = SymbolAttribution {
            name: "hot_a".into(),
            total: CounterSet {
                cycles: 30,
                insts: 12,
                l1i_misses: 4,
                ..CounterSet::default()
            },
            blocks: vec![
                BlockAttribution {
                    addr: 0x1040, // block 0 laid out AFTER block 1
                    size: 16,
                    counters: CounterSet {
                        cycles: 10,
                        l1i_misses: 1,
                        ..CounterSet::default()
                    },
                },
                BlockAttribution {
                    addr: 0x1000,
                    size: 32,
                    counters: CounterSet {
                        cycles: 20,
                        l1i_misses: 3,
                        ..CounterSet::default()
                    },
                },
            ],
        };
        let prov = FunctionProvenance {
            func_symbol: "hot_a".into(),
            total_samples: 99,
            hot_blocks: 1,
            cold_blocks: 1,
            merge_gains: vec![4.0],
            layout_score: 10.0,
            input_score: 8.0,
            used_input_order: false,
            clusters: vec![
                ClusterProvenance {
                    symbol: "hot_a".into(),
                    blocks: vec![1],
                    weight: 99,
                    size: 32,
                    cold: false,
                    symbol_order_pos: Some(0),
                },
                ClusterProvenance {
                    symbol: "hot_a.cold".into(),
                    blocks: vec![0],
                    weight: 0,
                    size: 16,
                    cold: true,
                    symbol_order_pos: None,
                },
            ],
        };
        let view = render_annotate(&sym, Event::L1iMisses, Some(&prov));
        let lines: Vec<&str> = view.lines().collect();
        assert!(lines[0].contains("hot_a"));
        assert!(lines[1].contains("ext-tsp"));
        // Address order: 0x1000 (block 1) before 0x1040 (block 0).
        let b1 = lines.iter().position(|l| l.contains("0x1000")).unwrap();
        let b0 = lines.iter().position(|l| l.contains("0x1040")).unwrap();
        assert!(b1 < b0);
        assert!(lines[b1].contains("#0 hot_a"));
        assert!(lines[b0].contains("[cold]"));
    }

    #[test]
    fn annotate_without_provenance_still_renders() {
        let sym = SymbolAttribution {
            name: "plain".into(),
            total: CounterSet::default(),
            blocks: vec![],
        };
        let view = render_annotate(&sym, Event::Cycles, None);
        assert!(view.contains("plain"));
        assert!(!view.contains("ext-tsp"));
    }
}
