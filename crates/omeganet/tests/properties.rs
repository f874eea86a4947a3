//! Randomized invariant tests for routing, destination sets and multicast,
//! driven by the in-tree [`SimRng`] (no external crates needed).

use std::collections::HashMap;

use tmc_omeganet::{CastCache, DestSet, LinkId, Omega, SchemeChoice, SchemeKind, TrafficMatrix};
use tmc_simcore::SimRng;

const CASES: usize = 48;

/// Random `(m, ports)` pair: a network size and a (possibly repeating)
/// destination port list, mirroring the old proptest strategy.
fn arb_ports(rng: &mut SimRng, max_m: u32) -> (u32, Vec<usize>) {
    let m = rng.gen_range(1..=max_m);
    let n = 1usize << m;
    let len = rng.gen_range(1..(2 * n).min(40));
    let ports = (0..len).map(|_| rng.gen_range(0..n)).collect();
    (m, ports)
}

#[test]
fn route_always_lands_on_destination() {
    let mut rng = SimRng::seed_from(0x07E1);
    for _ in 0..CASES {
        let m = rng.gen_range(1..=10u32);
        let net = Omega::new(m).unwrap();
        let src = rng.gen_range(0..net.ports());
        let dst = rng.gen_range(0..net.ports());
        let path = net.route(src, dst);
        assert_eq!(path.len() as u32, m + 1);
        assert_eq!(path[0].line, src);
        assert_eq!(path.last().unwrap().line, dst);
        // Layers strictly increase 0..=m.
        for (i, link) in path.iter().enumerate() {
            assert_eq!(link.layer as usize, i);
        }
    }
}

#[test]
fn exact_schemes_deliver_exactly_the_requested_set() {
    let mut rng = SimRng::seed_from(0xDE11);
    for _ in 0..CASES {
        let (m, ports) = arb_ports(&mut rng, 8);
        let net = Omega::new(m).unwrap();
        let dests = DestSet::from_ports(net.ports(), ports).unwrap();
        let want: Vec<usize> = dests.iter().collect();
        for kind in [SchemeKind::Replicated, SchemeKind::BitVector] {
            let mut t = TrafficMatrix::new(&net);
            let r = net.multicast(kind, 0, &dests, 20, &mut t).unwrap();
            assert_eq!(&r.delivered, &want, "{kind:?}");
        }
    }
}

#[test]
fn broadcast_tag_delivers_a_superset() {
    let mut rng = SimRng::seed_from(0xB7A6);
    for _ in 0..CASES {
        let (m, ports) = arb_ports(&mut rng, 8);
        let net = Omega::new(m).unwrap();
        let dests = DestSet::from_ports(net.ports(), ports).unwrap();
        let mut t = TrafficMatrix::new(&net);
        let r = net
            .multicast(
                SchemeKind::BroadcastTag,
                1 % net.ports(),
                &dests,
                20,
                &mut t,
            )
            .unwrap();
        for d in dests.iter() {
            assert!(r.delivered.contains(&d), "missing destination {d}");
        }
        // And the superset is exactly the enclosing subcube when the set
        // is not already a subcube.
        if dests.subcube_spec().is_none() {
            let (anchor, l) = dests.enclosing_low_subcube().unwrap();
            assert_eq!(r.delivered.len(), 1usize << l);
            assert!(r
                .delivered
                .iter()
                .all(|&p| p & !((1usize << l) - 1) == anchor));
        }
    }
}

#[test]
fn receipt_cost_always_equals_matrix_total() {
    let mut rng = SimRng::seed_from(0x0257);
    for _ in 0..CASES {
        let (m, ports) = arb_ports(&mut rng, 8);
        let payload = rng.gen_range(0..500u64);
        let net = Omega::new(m).unwrap();
        let dests = DestSet::from_ports(net.ports(), ports).unwrap();
        for kind in [
            SchemeKind::Replicated,
            SchemeKind::BitVector,
            SchemeKind::BroadcastTag,
            SchemeKind::Combined,
        ] {
            let mut t = TrafficMatrix::new(&net);
            let r = net.multicast(kind, 0, &dests, payload, &mut t).unwrap();
            assert_eq!(r.cost_bits, t.total_bits());
            assert_eq!(
                r.cost_bits,
                net.multicast_cost(kind, &dests, payload).unwrap()
            );
        }
    }
}

#[test]
fn combined_never_loses() {
    let mut rng = SimRng::seed_from(0xC0B1);
    for _ in 0..CASES {
        let (m, ports) = arb_ports(&mut rng, 8);
        let payload = rng.gen_range(0..500u64);
        let net = Omega::new(m).unwrap();
        let dests = DestSet::from_ports(net.ports(), ports).unwrap();
        let c = net
            .multicast_cost(SchemeKind::Combined, &dests, payload)
            .unwrap();
        for kind in [
            SchemeKind::Replicated,
            SchemeKind::BitVector,
            SchemeKind::BroadcastTag,
        ] {
            assert!(c <= net.multicast_cost(kind, &dests, payload).unwrap());
        }
    }
}

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Replicated,
    SchemeKind::BitVector,
    SchemeKind::BroadcastTag,
    SchemeKind::Combined,
];

/// What one cast does: `(scheme, cost, delivered ports, per-link charges)`.
type Outcome = (SchemeChoice, u64, Vec<usize>, Vec<(LinkId, u64)>);

/// A cast's outcome built the way the memo used to record a miss:
/// [`Omega::multicast`] into a zeroed matrix, scanned in `(layer, line)`
/// order.
fn scanned_reference(
    net: &Omega,
    kind: SchemeKind,
    src: usize,
    dests: &DestSet,
    payload: u64,
) -> Outcome {
    let mut scratch = TrafficMatrix::new(net);
    let receipt = net
        .multicast(kind, src, dests, payload, &mut scratch)
        .unwrap();
    let mut charges = Vec::new();
    for layer in 0..net.link_layers() {
        for line in 0..net.ports() {
            let link = LinkId { layer, line };
            if scratch.link_bits(link) > 0 {
                charges.push((link, scratch.link_bits(link)));
            }
        }
    }
    (
        receipt.scheme,
        receipt.cost_bits,
        receipt.delivered,
        charges,
    )
}

/// One cast through `cache` into `ledger`; `record` chooses whether the
/// charges are asked for (the list comes back empty when not). A sentinel
/// already in the record buffer checks that charges are appended, never
/// merged into what was there.
#[allow(clippy::too_many_arguments)]
fn cast_via(
    cache: &mut CastCache,
    net: &Omega,
    kind: SchemeKind,
    src: usize,
    dests: &DestSet,
    payload: u64,
    ledger: &mut TrafficMatrix,
    record: bool,
) -> Outcome {
    let sentinel = (
        LinkId {
            layer: 0,
            line: src,
        },
        1,
    );
    let mut rec = vec![sentinel];
    let mut delivered = vec![usize::MAX];
    let (scheme, cost) = cache
        .multicast_into(
            net,
            kind,
            src,
            dests,
            payload,
            ledger,
            &mut delivered,
            record.then_some(&mut rec),
        )
        .unwrap();
    assert_eq!(rec[0], sentinel);
    (scheme, cost, delivered, rec.split_off(1))
}

#[test]
fn castcache_replay_charges_links_identically_to_uncached_traversal() {
    let mut rng = SimRng::seed_from(0xCAC4E);
    for _ in 0..CASES {
        let (m, ports) = arb_ports(&mut rng, 7);
        let net = Omega::new(m).unwrap();
        let dests = DestSet::from_ports(net.ports(), ports).unwrap();
        let src = rng.gen_range(0..net.ports());
        let payload = rng.gen_range(0..300u64);
        let kind = SCHEMES[rng.gen_range(0..SCHEMES.len())];
        let mut cache = CastCache::new();
        let mut direct = TrafficMatrix::new(&net);
        let want = net
            .multicast(kind, src, &dests, payload, &mut direct)
            .unwrap();
        // Drive the same cast through the cache repeatedly: the first call
        // is walked, the second walked again and memoized, the rest replay
        // memoized charges. Every pass must reproduce the uncached matrix
        // link-for-link.
        for pass in 0..4 {
            let mut via = TrafficMatrix::new(&net);
            let (scheme, cost, delivered, rec) =
                cast_via(&mut cache, &net, kind, src, &dests, payload, &mut via, true);
            assert_eq!(
                (scheme, cost, &delivered),
                (want.scheme, want.cost_bits, &want.delivered),
                "pass {pass}"
            );
            assert_eq!(via, direct, "pass {pass}: matrices diverge");
            // The recorded charge list is exactly the nonzero links.
            let rec_total: u64 = rec.iter().map(|&(_, bits)| bits).sum();
            assert_eq!(rec_total, via.total_bits(), "pass {pass}");
            assert_eq!(rec.len(), via.links_used(), "pass {pass}");
            for &(link, bits) in &rec {
                assert_eq!(via.link_bits(link), bits, "pass {pass}");
            }
        }
        let stats = cache.stats();
        assert_eq!((stats.walked, stats.admitted, stats.replayed), (1, 1, 2));
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }
}

/// The three ways a cast is billed — walked on its first sighting, admitted
/// on its second, replayed from then on — against the scanned reference, on
/// seeded sequences with repeats. N = 8 and 64 keep destination sets in the
/// inline word; N = 1024 uses the small list up to 12 members and the heap
/// bitmap beyond, with sets of 12 and 13 built both by insertion and by
/// removal so both promotion boundaries are crossed.
#[test]
fn walked_admitted_and_replayed_casts_all_match_the_scanned_reference() {
    for (n, seed) in [(8usize, 0x51_u64), (64, 0x52), (1024, 0x53)] {
        let mut rng = SimRng::seed_from(seed);
        let net = Omega::with_ports(n).unwrap();
        let sizes: &[usize] = if n == 1024 {
            &[1, 2, 11, 12, 13, 14, 40, 300]
        } else {
            &[1, 2, 3, 5, 7]
        };
        let mut keys = Vec::new();
        for &kind in &SCHEMES {
            for &size in sizes {
                let mut dests = DestSet::empty(n);
                while dests.len() < size + 1 {
                    dests.insert(rng.gen_range(0..n));
                }
                // Shrink back by one: 13 -> 12 demotes bitmap to list.
                let last = dests.iter().last().unwrap();
                dests.remove(last);
                // An empty payload leaves scheme 1's last hop at zero bits:
                // crossed, but never listed.
                let payload = 100 * rng.gen_range(0..3u64);
                keys.push((kind, rng.gen_range(0..n), payload, dests));
            }
        }
        let want: Vec<Outcome> = keys
            .iter()
            .map(|(kind, src, payload, dests)| {
                scanned_reference(&net, *kind, *src, dests, *payload)
            })
            .collect();

        let mut cache = CastCache::new();
        let mut ledger = TrafficMatrix::new(&net);
        let mut want_ledger = TrafficMatrix::new(&net);
        let mut sightings: HashMap<usize, u64> = HashMap::new();
        for step in 0..5 * keys.len() {
            let k = rng.gen_range(0..keys.len());
            let (kind, src, payload, dests) = &keys[k];
            let record = rng.gen_bool(0.5);
            let got = cast_via(
                &mut cache,
                &net,
                *kind,
                *src,
                dests,
                *payload,
                &mut ledger,
                record,
            );
            let (scheme, cost, delivered, charges) = &want[k];
            let nth = sightings.entry(k).or_default();
            *nth += 1;
            let at = format!("N={n} step {step} key {k} sighting {nth}");
            assert_eq!((got.0, got.1, &got.2), (*scheme, *cost, delivered), "{at}");
            if record {
                assert_eq!(&got.3, charges, "{at}");
            }
            for &(link, bits) in charges {
                want_ledger.add(link, bits);
            }
            assert_eq!(ledger.total_bits(), want_ledger.total_bits(), "{at}");
        }
        assert_eq!(ledger, want_ledger, "N={n}: ledgers diverge");

        let stats = cache.stats();
        let seen = sightings.len() as u64;
        let repeated = sightings.values().filter(|&&c| c >= 2).count() as u64;
        let casts: u64 = sightings.values().sum();
        assert!(repeated > 0 && casts > seen + repeated, "N={n}: no replays");
        assert_eq!(
            (stats.walked, stats.admitted, stats.replayed, stats.entries),
            (seen, repeated, casts - seen - repeated, repeated as usize),
            "N={n}"
        );
    }
}

/// The shapes a merged, ordered charge list has to get right.
#[test]
fn charge_lists_merge_shared_links_and_follow_widened_delivery() {
    let net = Omega::new(4).unwrap();
    // Scheme 1 to three destinations: the source link is crossed once per
    // destination and comes back as one entry.
    let three = DestSet::from_ports(16, [2usize, 3, 9]).unwrap();
    // Scheme 3 on {1, 2}: not a subcube, so delivery widens to {0, 1, 2, 3}.
    let pair = DestSet::from_ports(16, [1usize, 2]).unwrap();
    let mut cache = CastCache::new();
    for sighting in 1..=3 {
        let mut ledger = TrafficMatrix::new(&net);
        let want = scanned_reference(&net, SchemeKind::Replicated, 5, &three, 20);
        let got = cast_via(
            &mut cache,
            &net,
            SchemeKind::Replicated,
            5,
            &three,
            20,
            &mut ledger,
            true,
        );
        assert_eq!(got, want, "{sighting}");
        assert_eq!(want.3[0], (LinkId { layer: 0, line: 5 }, 3 * (20 + 4)));

        let want = scanned_reference(&net, SchemeKind::BroadcastTag, 7, &pair, 20);
        let got = cast_via(
            &mut cache,
            &net,
            SchemeKind::BroadcastTag,
            7,
            &pair,
            20,
            &mut ledger,
            true,
        );
        assert_eq!(got, want, "{sighting}");
        assert_eq!(want.2, vec![0, 1, 2, 3]);
    }
    assert_eq!((cache.hits(), cache.misses()), (2, 4));
}

/// Two keys that collide in the direct-mapped sighting table, found from
/// the outside: a collider evicts the first key's tag, so the first key's
/// second sighting is walked instead of admitted. Neither key ever sees
/// the other's charges, before or after both are memoized.
#[test]
fn colliding_sightings_never_replay_each_others_charges() {
    let net = Omega::new(3).unwrap();
    let dests = DestSet::from_ports(8, [1usize, 6]).unwrap();
    let kind = SchemeKind::BitVector;
    let mut cache = CastCache::new();
    let mut ledger = TrafficMatrix::new(&net);
    let mut cast = |cache: &mut CastCache, payload: u64| {
        let got = cast_via(cache, &net, kind, 2, &dests, payload, &mut ledger, true);
        let want = scanned_reference(&net, kind, 2, &dests, payload);
        assert_eq!(got, want, "{payload}");
    };
    let collider = (1..1u64 << 22)
        .find(|&payload| {
            cache.clear();
            cast(&mut cache, 0);
            cast(&mut cache, payload);
            cast(&mut cache, 0);
            cache.stats().admitted == 0
        })
        .expect("some key shares payload 0's sighting slot");
    // Alternating, each evicts the other's tag: always walked.
    cache.clear();
    for _ in 0..3 {
        cast(&mut cache, 0);
        cast(&mut cache, collider);
    }
    assert_eq!((cache.hits(), cache.len()), (0, 0));
    // Back to back, each is admitted; both then live in the memo and replay
    // their own charges.
    for payload in [0, 0, collider, collider, 0, collider] {
        cast(&mut cache, payload);
    }
    let stats = cache.stats();
    assert_eq!((stats.walked, stats.admitted, stats.replayed), (8, 2, 2));
}

#[test]
fn destset_roundtrips_sorted_unique() {
    let mut rng = SimRng::seed_from(0x5027);
    for _ in 0..CASES {
        let (m, ports) = arb_ports(&mut rng, 9);
        let n = 1usize << m;
        let dests = DestSet::from_ports(n, ports.clone()).unwrap();
        let mut want = ports;
        want.sort_unstable();
        want.dedup();
        assert_eq!(dests.iter().collect::<Vec<_>>(), want.clone());
        assert_eq!(dests.len(), want.len());
        for p in 0..n {
            assert_eq!(dests.contains(p), want.contains(&p));
        }
    }
}

#[test]
fn constructed_subcubes_are_recognized() {
    let mut rng = SimRng::seed_from(0x5CBE);
    for _ in 0..CASES {
        let m = rng.gen_range(2..=9u32);
        let n = 1usize << m;
        let mask = rng.gen_range(0..512usize) % n;
        let anchor = (rng.gen_range(0..512usize) % n) & !mask;
        let bits: Vec<usize> = (0..m as usize).filter(|&b| mask >> b & 1 == 1).collect();
        let members = (0..1usize << bits.len()).map(|combo| {
            let mut p = anchor;
            for (i, &b) in bits.iter().enumerate() {
                if combo >> i & 1 == 1 {
                    p |= 1 << b;
                }
            }
            p
        });
        let set = DestSet::from_ports(n, members).unwrap();
        assert_eq!(set.subcube_spec(), Some((anchor, mask)));
    }
}
