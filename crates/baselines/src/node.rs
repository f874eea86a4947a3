//! The machine under every baseline: the network, the memory modules, the
//! counters and the tracer, billed the way [`tmc_core::System`] bills. Each
//! unicast is charged link by link by [`Omega::charge_unicast`], each
//! invalidation or update cast goes through the node's own [`CastCache`],
//! and the bit total is kept as messages are billed, so a traced access's
//! cost is one subtraction rather than a sum over every link.

use tmc_memsys::{BlockAddr, BlockSpec, MainMemory, ModuleMap, MsgSizing, WordAddr};
use tmc_obs::{ProtocolEvent, Tracer};
use tmc_omeganet::{CastCache, DestSet, Omega, SchemeKind, TrafficMatrix};
use tmc_simcore::CounterSet;

/// One baseline's network, memory modules, counters and tracer.
#[derive(Debug)]
pub(crate) struct Node {
    net: Omega,
    pub(crate) traffic: TrafficMatrix,
    scheme: SchemeKind,
    casts: CastCache,
    /// The destinations of the cast being built: a sharer set without its
    /// sender, rebuilt in place for every cast.
    dests: DestSet,
    /// The receiving ports of the last cast.
    delivered: Vec<usize>,
    /// Bits billed so far: the ledger's total, kept as it grows.
    pub(crate) bits: u64,
    pub(crate) memory: MainMemory,
    modules: ModuleMap,
    pub(crate) sizing: MsgSizing,
    pub(crate) spec: BlockSpec,
    pub(crate) counters: CounterSet,
    pub(crate) tracer: Tracer,
    n_procs: usize,
}

impl Node {
    /// The node of an `n_procs`-port machine with default message sizing,
    /// casting with the combined scheme.
    ///
    /// # Panics
    ///
    /// Panics unless `n_procs` is a power of two in `2..=65536`.
    pub(crate) fn new(n_procs: usize) -> Self {
        let net = Omega::with_ports(n_procs).expect("valid port count");
        assert_eq!(net.ports(), n_procs, "port count must be a power of two");
        let sizing = MsgSizing::default();
        let spec = BlockSpec::new(sizing.block_words.trailing_zeros());
        Node {
            traffic: TrafficMatrix::new(&net),
            scheme: SchemeKind::Combined,
            casts: CastCache::new(),
            dests: DestSet::empty(n_procs),
            delivered: Vec::new(),
            bits: 0,
            net,
            memory: MainMemory::new(spec),
            modules: ModuleMap::new(n_procs),
            sizing,
            spec,
            counters: CounterSet::new(),
            tracer: Tracer::new(),
            n_procs,
        }
    }

    /// Selects the multicast scheme of every later cast.
    pub(crate) fn set_scheme(&mut self, scheme: SchemeKind) {
        self.scheme = scheme;
    }

    /// The memory module holding `block`.
    #[inline]
    pub(crate) fn home(&self, block: BlockAddr) -> usize {
        self.modules.module_of(block)
    }

    /// Memory's copy of the word at `addr`.
    #[inline]
    pub(crate) fn memory_word(&self, addr: WordAddr) -> u64 {
        self.memory.read_block(self.spec.block_of(addr))[self.spec.offset_of(addr)]
    }

    /// Sends `payload_bits` from `from` to `to`.
    pub(crate) fn send(&mut self, from: usize, to: usize, payload_bits: u64) {
        let cost_bits = self
            .net
            .charge_unicast(from, to, payload_bits, &mut self.traffic)
            .expect("valid ports");
        self.settle(cost_bits);
    }

    /// Casts `payload_bits` from `from` to every member of `sharers` except
    /// `except`, counting the cast under `counter`. Returns `None`, sending
    /// nothing, when nobody else shares; otherwise the set cast to and the
    /// ports that received the message (a superset of it under
    /// broadcast-tag routing).
    pub(crate) fn cast(
        &mut self,
        from: usize,
        sharers: &DestSet,
        except: usize,
        payload_bits: u64,
        counter: &'static str,
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
        self.settle(cost_bits);
        self.counters.incr(counter);
        Some((&self.dests, &self.delivered))
    }

    fn settle(&mut self, cost_bits: u64) {
        self.bits += cost_bits;
        self.counters.add("bits_total", cost_bits);
        self.counters.incr("msgs_total");
    }

    /// Starts `proc`'s access: returns the bits billed so far, for
    /// [`Node::record`].
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    #[inline]
    pub(crate) fn begin(&self, proc: usize) -> u64 {
        assert!(proc < self.n_procs, "processor out of range");
        self.bits
    }

    /// Traces the access that [`Node::begin`] started when it billed
    /// `before` bits: a `Write` event if `write`, else a `Read`.
    #[inline]
    pub(crate) fn record(
        &mut self,
        write: bool,
        proc: usize,
        addr: WordAddr,
        value: u64,
        hit: bool,
        before: u64,
    ) {
        if !self.tracer.is_enabled() {
            return;
        }
        let cost_bits = self.bits - before;
        self.tracer.push(if write {
            ProtocolEvent::Write {
                proc,
                addr,
                value,
                hit,
                cost_bits,
                mode: None,
            }
        } else {
            ProtocolEvent::Read {
                proc,
                addr,
                value,
                hit,
                cost_bits,
                mode: None,
            }
        });
    }
}

/// The [`CoherentSystem`](crate::CoherentSystem) methods every baseline
/// answers from its [`Node`], written once for the impls that reach the
/// node through the field path given.
macro_rules! node_accessors {
    ($($node:ident).+) => {
        fn total_traffic_bits(&self) -> u64 {
            self.$($node).+.bits
        }

        fn traffic(&self) -> &tmc_omeganet::TrafficMatrix {
            &self.$($node).+.traffic
        }

        fn counters(&self) -> &tmc_simcore::CounterSet {
            &self.$($node).+.counters
        }

        fn set_tracing(&mut self, on: bool) {
            self.$($node).+.tracer.set_enabled(on);
        }

        fn tracing_enabled(&self) -> bool {
            self.$($node).+.tracer.is_enabled()
        }

        fn drain_trace(&mut self) -> Vec<tmc_obs::ProtocolEvent> {
            self.$($node).+.tracer.drain()
        }
    };
}
pub(crate) use node_accessors;
