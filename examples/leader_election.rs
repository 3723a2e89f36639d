//! Leader election under adversarial wake-up, with an audit log.
//!
//! The paper's related work (Section 1.3) frames leader election as the
//! classic consumer of wake-up primitives; this example runs the
//! `LeaderElect` extension (Theorem 3's DFS tokens + completion
//! announcements) under a hostile staggered schedule and prints the wake
//! front from the recorded audit log.
//!
//! ```text
//! cargo run --example leader_election
//! ```

use wakeup::core::leader::LeaderElect;
use wakeup::graph::{generators, NodeId};
use wakeup::sim::adversary::WakeSchedule;
use wakeup::sim::audit::AuditEvent;
use wakeup::sim::{AsyncConfig, AsyncEngine, Network, TICKS_PER_UNIT};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 48usize;
    let g = generators::watts_strogatz(n, 3, 0.2, 11)?;
    let net = Network::kt1(g, 11);

    // The adversary wakes five nodes, spaced to maximize token churn.
    let contenders: Vec<NodeId> = (0..n).step_by(n / 5).map(NodeId::new).collect();
    let schedule = WakeSchedule::staggered(&contenders, 6.0);
    println!(
        "small-world network (n = {n}); adversary wakes {:?} at 6-unit intervals\n",
        contenders.iter().map(|v| v.index()).collect::<Vec<_>>()
    );

    let config = AsyncConfig {
        seed: 5,
        audit_capacity: Some(200_000),
        ..AsyncConfig::default()
    };
    let report = AsyncEngine::<LeaderElect>::new(&net, config).run(&schedule);
    assert!(report.all_awake);

    // Agreement: every node output the same leader.
    let leader = report.outputs[0].expect("node 0 elected a leader");
    for out in &report.outputs {
        assert_eq!(out.unwrap(), leader, "disagreement!");
    }
    let leader_node = net.node_with_id(leader).unwrap();
    println!(
        "elected leader: id {leader} (node {}; adversary-woken: {})",
        leader_node.index(),
        contenders.contains(&leader_node)
    );
    println!(
        "cost: {} messages, {:.1} time units\n",
        report.metrics.messages_sent,
        report.metrics.time_units()
    );

    // The engines record wakes in tick order, so the log's wake events are
    // already the wake front.
    let log = report.audit_log.as_ref().unwrap();
    println!("wake front (first 12 wake-ups):");
    let wakes = log.events().iter().filter_map(|e| match *e {
        AuditEvent::Wake { tick, node, cause } => Some((tick, node, cause)),
        _ => None,
    });
    for (tick, node, cause) in wakes.take(12) {
        let t = tick as f64 / TICKS_PER_UNIT as f64;
        println!("  t = {t:7.3}  {}  ({cause:?})", NodeId::new(node as usize));
    }
    println!("\ntimeline head (audit JSONL):");
    for line in log.to_jsonl().lines().take(8) {
        println!("  {line}");
    }
    Ok(())
}
