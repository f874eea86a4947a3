//! Regenerates Table 1: the protocol states, their meaning, and the state
//! field encodings — printed from live `CacheLine` and `OwnerState` values
//! so the table is the implementation, not a transcription.

use tmc_core::{CacheLine, Mode, OwnerState, StateName};
use tmc_memsys::{BlockData, CacheId};

use crate::Table;

/// The state field of `line`, whose owner state (present vector) is
/// `owner` when the line is owned.
fn encoding(line: &CacheLine, owner: Option<&OwnerState>) -> String {
    let v = u8::from(line.is_valid());
    let o = u8::from(line.is_owned());
    if v == 0 {
        return "V=0".into();
    }
    if o == 0 {
        return "V=1, O=0".into();
    }
    let dw = u8::from(line.mode.dw_bit());
    let p: Vec<usize> = owner.expect("an owned line").present.iter().collect();
    format!("V=1, O=1, DW={dw}, P={p:?}")
}

pub fn run() {
    let n = 4;
    let me = CacheId(1);
    let data = BlockData::zeroed(4);

    let mut invalid = CacheLine::invalid_hint(CacheId(0), 4);
    invalid.owner_hint = Some(CacheId(0));
    let unowned = CacheLine::unowned(data.clone(), CacheId(0));
    let mut oe_dw = CacheLine::owned(data.clone(), me, Mode::DistributedWrite);
    let oe_gr = CacheLine::owned(data.clone(), me, Mode::GlobalRead);
    let one_dw = CacheLine::owned(data.clone(), me, Mode::DistributedWrite);
    let one_gr = CacheLine::owned(data, me, Mode::GlobalRead);
    oe_dw.modified = true;
    // The owner-table entries the owned lines name: `P = {me}`, or with
    // cache 3 present as well.
    let alone = OwnerState::exclusive(me, n);
    let mut shared = alone.clone();
    shared.present.insert(3);

    let cases: Vec<(&CacheLine, Option<&OwnerState>, &str)> = vec![
        (
            &invalid,
            None,
            "does not contain a valid copy; OWNER says where to go",
        ),
        (
            &unowned,
            None,
            "valid copy, not allowed to be modified; other copies exist",
        ),
        (
            &oe_dw,
            Some(&alone),
            "owned, the only copy; copies are allowed",
        ),
        (
            &oe_gr,
            Some(&alone),
            "owned, the only copy; copies are not allowed",
        ),
        (
            &one_dw,
            Some(&shared),
            "owned; other valid copies exist and receive writes",
        ),
        (
            &one_gr,
            Some(&shared),
            "owned; other (invalid) copies exist",
        ),
    ];

    let mut t = Table::new(vec![
        "state".into(),
        "description".into(),
        "state field (cache 1 of 4)".into(),
    ]);
    for (line, owner, desc) in cases {
        t.row(vec![
            line.state_name(me, owner).to_string(),
            desc.to_string(),
            encoding(line, owner),
        ]);
    }
    t.print("Table 1: states for cached blocks (regenerated from live lines)");

    println!(
        "Expected names: {:?}",
        [
            StateName::Invalid,
            StateName::UnOwned,
            StateName::OwnedExclusivelyDistributedWrite,
            StateName::OwnedExclusivelyGlobalRead,
            StateName::OwnedNonExclusivelyDistributedWrite,
            StateName::OwnedNonExclusivelyGlobalRead,
        ]
        .map(|s| s.to_string())
    );
}
