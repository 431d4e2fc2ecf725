//! CSV renderings of experiment results, for plotting (gnuplot, pandas).
//!
//! Every `baldur <experiment>` run accepts `--csv PATH` and writes its
//! table from here. Columns are stable and documented per function.

use std::fmt::Write as _;

use crate::experiments::{
    ChaosRow, DegradationRow, Fig10Row, Fig6Row, Fig7Row, OverloadRow, SaturationRow, ScalingRow,
    TableVRow,
};
use crate::power::scaling::ScalePoint;

/// `pattern,network,load,avg_ns,p99_ns,drop_rate,delivered,generated`.
pub fn fig6(rows: &[Fig6Row]) -> String {
    let mut out =
        String::from("pattern,network,load,avg_ns,p99_ns,drop_rate,delivered,generated\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            r.pattern,
            r.network,
            r.load,
            r.report.avg_ns,
            r.report.p99_ns,
            r.report.drop_rate,
            r.report.delivered,
            r.report.generated
        );
    }
    out
}

/// `workload,network,avg_ns,p99_ns,normalized_avg,normalized_p99`.
pub fn fig7(rows: &[Fig7Row]) -> String {
    let normalized = crate::experiments::normalize_fig7(rows);
    let mut out = String::from("workload,network,avg_ns,p99_ns,normalized_avg,normalized_p99\n");
    for (r, (_, _, na, np)) in rows.iter().zip(normalized.iter()) {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            r.workload, r.network, r.report.avg_ns, r.report.p99_ns, na, np
        );
    }
    out
}

/// `scale,network,nodes,transceivers_w,serdes_w,buffers_w,switching_w,total_w`.
pub fn fig8(sweep: &[ScalePoint]) -> String {
    let mut out =
        String::from("scale,network,nodes,transceivers_w,serdes_w,buffers_w,switching_w,total_w\n");
    for p in sweep {
        for (n, size, b) in &p.entries {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                p.label,
                n.name(),
                size,
                b.transceivers_w,
                b.serdes_w,
                b.buffers_w,
                b.switching_w,
                b.total_w()
            );
        }
    }
    out
}

/// `scale,nodes,interposers,fibers,faus,rfecs,transceivers,total`.
pub fn fig10(rows: &[Fig10Row]) -> String {
    let mut out = String::from("scale,nodes,interposers,fibers,faus,rfecs,transceivers,total\n");
    for r in rows {
        let b = &r.breakdown;
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            r.label,
            r.nodes,
            b.interposers,
            b.fibers,
            b.faus,
            b.rfecs,
            b.transceivers,
            b.total()
        );
    }
    out
}

/// `multiplicity,gates,latency_ns,paper_drop_pct,measured_drop_pct`.
pub fn table5(rows: &[TableVRow]) -> String {
    let mut out = String::from("multiplicity,gates,latency_ns,paper_drop_pct,measured_drop_pct\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            r.multiplicity, r.gates, r.latency_ns, r.paper_drop_pct, r.measured_drop_pct
        );
    }
    out
}

/// `network,offered,accepted,avg_ns`.
pub fn saturation(rows: &[SaturationRow]) -> String {
    let mut out = String::from("network,offered,accepted,avg_ns\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{}",
            r.network, r.offered, r.accepted, r.avg_ns
        );
    }
    out
}

/// `network,fraction,goodput,avg_ns,p99_ns,delivered,abandoned,generated,retransmissions`.
pub fn faults(rows: &[DegradationRow]) -> String {
    let mut out = String::from(
        "network,fraction,goodput,avg_ns,p99_ns,delivered,abandoned,generated,retransmissions\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            r.network,
            r.fraction,
            r.report.delivery_ratio(),
            r.report.avg_ns,
            r.report.p99_ns,
            r.report.delivered,
            r.report.abandoned,
            r.report.generated,
            r.report.retransmissions
        );
    }
    out
}

/// `network,seed,events,repairs,violations,recovered,max_ttr_ns,stranded,flap_amp,delivered,abandoned,generated`.
pub fn chaos(rows: &[ChaosRow]) -> String {
    let mut out = String::from(
        "network,seed,events,repairs,violations,recovered,max_ttr_ns,stranded,flap_amp,delivered,abandoned,generated\n",
    );
    for r in rows {
        let recovered = r.report.recoveries.iter().filter(|x| x.recovered()).count();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            r.network,
            r.seed,
            r.events,
            r.report.recoveries.len(),
            r.report.oracle.total(),
            recovered,
            r.report.max_recovery_ns().unwrap_or(-1.0),
            r.report.stranded,
            r.report.flap_amplification(),
            r.report.delivered,
            r.report.abandoned,
            r.report.generated
        );
    }
    out
}

/// `network,pattern,load,generated,delivered,expired,ingress_drops,abandoned,goodput_pkt_per_us,flows,jain,min_delivered,max_delivered,p99_ns,p999_ns,violations`.
pub fn overload(rows: &[OverloadRow]) -> String {
    let mut out = String::from(
        "network,pattern,load,generated,delivered,expired,ingress_drops,abandoned,goodput_pkt_per_us,flows,jain,min_delivered,max_delivered,p99_ns,p999_ns,violations\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.network,
            r.pattern,
            r.load,
            r.report.generated,
            r.report.delivered,
            r.report.expired,
            r.report.ingress_drops,
            r.report.abandoned,
            r.goodput_pkt_per_us(),
            r.report.fairness.flows,
            r.report.fairness.jain,
            r.report.fairness.min_delivered,
            r.report.fairness.max_delivered,
            r.report.p99_ns,
            r.report.p999_ns,
            r.report.oracle.total()
        );
    }
    out
}

/// `endpoints,wall_ms,events,events_per_sec,peak_rss_bytes,state_bytes,topo_bytes,bytes_per_endpoint,delivered,generated,peak_pending,calendar`.
pub fn scaling(rows: &[ScalingRow]) -> String {
    let mut out = String::from(
        "endpoints,wall_ms,events,events_per_sec,peak_rss_bytes,state_bytes,topo_bytes,bytes_per_endpoint,delivered,generated,peak_pending,calendar\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            r.endpoints,
            r.wall_ns as f64 / 1e6,
            r.events,
            r.events_per_sec(),
            r.peak_rss_bytes,
            r.state_bytes,
            r.topo_bytes,
            r.bytes_per_endpoint(),
            r.delivered,
            r.generated,
            r.peak_pending,
            r.calendar_backed
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{table_v, EvalConfig};

    #[test]
    fn table5_csv_is_well_formed() {
        let rows = table_v(&EvalConfig {
            nodes: 64,
            packets_per_node: 20,
            ..EvalConfig::tiny()
        });
        let csv = table5(&rows);
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 6); // header + 5 rows
        assert!(lines[0].starts_with("multiplicity,"));
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 5, "{line}");
        }
    }

    #[test]
    fn fig8_csv_has_all_cells() {
        let sweep = crate::experiments::figure8();
        let csv = fig8(&sweep);
        // 4 scales x 4 networks + header.
        assert_eq!(csv.trim().lines().count(), 17);
    }
}
