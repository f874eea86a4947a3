//! An annotated, message-by-message protocol walk — the Figure 2 scenario.
//!
//! Reconstructs the paper's Figure 2: four caches, a block X owned by
//! cache 1 in distributed-write mode with a modified copy, a second copy at
//! cache 2, an invalid entry with an OWNER pointer at cache 3. For every
//! step it prints the messages sent with the link bits each kind cost (the
//! `msgs_total` and `bits[<kind>]` counter deltas), the structured protocol
//! events (misses, multicasts, mode switches, ownership moves) and the
//! Table 1 state changes of block X.
//!
//! Run with: `cargo run --example protocol_trace`

use two_mode_coherence::memsys::{BlockAddr, WordAddr};
use two_mode_coherence::protocol::{Mode, ProtocolEvent, StateName, System, SystemConfig};

fn states(sys: &System, block: BlockAddr) -> Vec<Option<StateName>> {
    (0..sys.n_procs())
        .map(|c| sys.state_name(c, block))
        .collect()
}

fn step(
    sys: &mut System,
    block: BlockAddr,
    what: &str,
    op: impl FnOnce(&mut System) -> Result<(), two_mode_coherence::protocol::CoreError>,
) -> Result<(), Box<dyn std::error::Error>> {
    let counters = sys.counters().clone();
    let before = states(sys, block);
    op(sys)?;
    let delta = |name: &str| sys.counters().get(name) - counters.get(name);

    println!("\n--- {what}");
    println!("  {} message(s)", delta("msgs_total"));
    for (name, _) in sys.counters().iter() {
        if let Some(kind) = name.strip_prefix("bits[").and_then(|k| k.strip_suffix(']')) {
            let bits = delta(name);
            if bits > 0 {
                println!("  msg   {kind}: {bits} bits on links");
            }
        }
    }
    for e in sys.drain_trace() {
        match e {
            ProtocolEvent::Miss {
                proc, write, cold, ..
            } => {
                let access = if write { "write" } else { "read" };
                let entry = if cold { "no entry" } else { "invalid entry" };
                println!("  event C{proc} {access} miss ({entry})");
            }
            ProtocolEvent::Cast {
                from,
                scheme,
                payload_bits,
                cost_bits,
                links,
            } => {
                let links: Vec<_> = links
                    .iter()
                    .map(|l| format!("L{}.{}={}", l.layer, l.line, l.bits))
                    .collect();
                println!(
                    "  event multicast from port {from} via {scheme:?}: {payload_bits} payload \
                     bits, {cost_bits} bits on links [{}]",
                    links.join(" ")
                );
            }
            ProtocolEvent::ModeSwitch {
                owner,
                to,
                adaptive,
                ..
            } => {
                let why = if adaptive { "adaptive" } else { "directive" };
                println!("  event C{owner} switches X to {to} ({why})");
            }
            ProtocolEvent::OwnershipTransfer {
                from, to, handoff, ..
            } => {
                let how = if handoff { "handoff" } else { "transfer" };
                println!("  event ownership C{from} -> C{to} ({how})");
            }
            // The access itself (read/write/set-mode) restates the step.
            _ => {}
        }
    }
    let fmt = |s: Option<StateName>| s.map_or("(no entry)".to_string(), |s| s.to_string());
    for (c, (old, new)) in before.into_iter().zip(states(sys, block)).enumerate() {
        if old != new {
            println!("  state C{c} {block}: {} -> {}", fmt(old), fmt(new));
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut sys = System::new(SystemConfig::new(4))?;
    sys.set_tracing(true);
    let x = WordAddr::new(0);
    let block = sys.config().spec.block_of(x);

    step(
        &mut sys,
        block,
        "cache 1 writes X: load from memory, become exclusive owner",
        |s| s.write(1, x, 10),
    )?;
    step(
        &mut sys,
        block,
        "cache 3 reads X in global-read mode: datum only, invalid entry + OWNER pointer",
        |s| s.read(3, x).map(drop),
    )?;
    step(
        &mut sys,
        block,
        "software sets mode = distributed write at the owner",
        |s| s.set_mode(1, x, Mode::DistributedWrite),
    )?;
    step(
        &mut sys,
        block,
        "cache 2 reads X: whole copy, UnOwned; owner becomes non-exclusive",
        |s| s.read(2, x).map(drop),
    )?;
    step(
        &mut sys,
        block,
        "cache 1 writes X: the write is distributed to the copy holders",
        |s| s.write(1, x, 11),
    )?;

    println!("\n=== Figure 2 reconstruction ===");
    println!("block store owner : {}", sys.owner_of(block).unwrap());
    for c in 0..4 {
        match sys.state_name(c, block) {
            Some(s) => println!("cache {c}: {s}"),
            None => println!(
                "cache {c}: (no entry for X — holds other blocks, like Figure 2's cache 4)"
            ),
        }
    }
    println!(
        "owner's present   : {:?}",
        sys.present_set(block).unwrap().iter().collect::<Vec<_>>()
    );
    println!("mode              : {}", sys.mode_of(block).unwrap());

    sys.check_invariants()?;
    Ok(())
}
