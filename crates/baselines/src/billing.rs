//! The network side of every baseline, billed the way
//! [`tmc_core::System`] bills: each unicast is charged link by link by
//! [`Omega::charge_unicast`], each invalidation or update cast goes through
//! the engine's own [`CastCache`], and the bit total is kept as messages
//! are billed, so a traced access's cost is one subtraction rather than a
//! sum over every link.

use tmc_omeganet::{CastCache, DestSet, Omega, SchemeKind, TrafficMatrix};
use tmc_simcore::CounterSet;

/// One engine's network, ledger and cast memo.
#[derive(Debug)]
pub(crate) struct Billing {
    net: Omega,
    traffic: TrafficMatrix,
    scheme: SchemeKind,
    casts: CastCache,
    /// The destinations of the cast being built: a sharer set without its
    /// sender, rebuilt in place for every cast.
    dests: DestSet,
    /// The receiving ports of the last cast.
    delivered: Vec<usize>,
    /// Bits billed so far: the ledger's total, kept as it grows.
    bits: u64,
}

impl Billing {
    /// The network of an `n_procs`-port machine, casting with the combined
    /// scheme.
    ///
    /// # Panics
    ///
    /// Panics unless `n_procs` is a power of two in `2..=65536`.
    pub(crate) fn new(n_procs: usize) -> Self {
        let net = Omega::with_ports(n_procs).expect("valid port count");
        assert_eq!(net.ports(), n_procs, "port count must be a power of two");
        Billing {
            traffic: TrafficMatrix::new(&net),
            scheme: SchemeKind::Combined,
            casts: CastCache::new(),
            dests: DestSet::empty(n_procs),
            delivered: Vec::new(),
            bits: 0,
            net,
        }
    }

    /// Selects the multicast scheme of every later cast.
    pub(crate) fn set_scheme(&mut self, scheme: SchemeKind) {
        self.scheme = scheme;
    }

    /// Sends `payload_bits` from `from` to `to`.
    pub(crate) fn unicast(
        &mut self,
        counters: &mut CounterSet,
        from: usize,
        to: usize,
        payload_bits: u64,
    ) {
        let cost_bits = self
            .net
            .charge_unicast(from, to, payload_bits, &mut self.traffic)
            .expect("valid ports");
        self.settle(counters, cost_bits);
    }

    /// Casts `payload_bits` from `from` to every member of `sharers` except
    /// `except`. Returns `None`, sending nothing, when nobody else shares;
    /// otherwise the set cast to and the ports that received the message
    /// (a superset of it under broadcast-tag routing).
    pub(crate) fn cast_to_others(
        &mut self,
        counters: &mut CounterSet,
        from: usize,
        sharers: &DestSet,
        except: usize,
        payload_bits: u64,
    ) -> Option<(&DestSet, &[usize])> {
        self.dests.clone_from(sharers);
        self.dests.remove(except);
        if self.dests.is_empty() {
            return None;
        }
        let (_, cost_bits) = self
            .casts
            .multicast_into(
                &self.net,
                self.scheme,
                from,
                &self.dests,
                payload_bits,
                &mut self.traffic,
                &mut self.delivered,
                None,
            )
            .expect("valid dests");
        self.settle(counters, cost_bits);
        Some((&self.dests, &self.delivered))
    }

    fn settle(&mut self, counters: &mut CounterSet, cost_bits: u64) {
        self.bits += cost_bits;
        counters.add("bits_total", cost_bits);
        counters.incr("msgs_total");
    }

    /// Bits billed so far.
    pub(crate) fn bits(&self) -> u64 {
        self.bits
    }

    /// The per-link ledger.
    pub(crate) fn traffic(&self) -> &TrafficMatrix {
        &self.traffic
    }
}
