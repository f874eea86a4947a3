//! Regenerates Table 1: the protocol states, their meaning, and the state
//! field encodings — printed from live `CacheLine` values so the table is
//! the implementation, not a transcription.

use tmc_core::{CacheLine, Mode, StateName};
use tmc_memsys::{BlockData, CacheId};

use crate::Table;

fn encoding(line: &CacheLine) -> String {
    let v = u8::from(line.is_valid());
    let o = u8::from(line.is_owned());
    if v == 0 {
        return "V=0".into();
    }
    if o == 0 {
        return "V=1, O=0".into();
    }
    let dw = u8::from(line.mode.dw_bit());
    let p: Vec<usize> = line.present.iter().collect();
    format!("V=1, O=1, DW={dw}, P={p:?}")
}

pub fn run() {
    let n = 4;
    let me = CacheId(1);
    let data = BlockData::zeroed(4);

    let mut invalid = CacheLine::invalid_hint(CacheId(0), n, 4);
    invalid.owner_hint = Some(CacheId(0));
    let unowned = CacheLine::unowned(data.clone(), CacheId(0), n);
    let mut oe_dw = CacheLine::owned_exclusive(data.clone(), me, Mode::DistributedWrite, n);
    let oe_gr = CacheLine::owned_exclusive(data.clone(), me, Mode::GlobalRead, n);
    let mut one_dw = CacheLine::owned_exclusive(data.clone(), me, Mode::DistributedWrite, n);
    one_dw.present.insert(3);
    let mut one_gr = CacheLine::owned_exclusive(data, me, Mode::GlobalRead, n);
    one_gr.present.insert(3);
    oe_dw.modified = true;

    let cases: Vec<(&CacheLine, &str)> = vec![
        (
            &invalid,
            "does not contain a valid copy; OWNER says where to go",
        ),
        (
            &unowned,
            "valid copy, not allowed to be modified; other copies exist",
        ),
        (&oe_dw, "owned, the only copy; copies are allowed"),
        (&oe_gr, "owned, the only copy; copies are not allowed"),
        (
            &one_dw,
            "owned; other valid copies exist and receive writes",
        ),
        (&one_gr, "owned; other (invalid) copies exist"),
    ];

    let mut t = Table::new(vec![
        "state".into(),
        "description".into(),
        "state field (cache 1 of 4)".into(),
    ]);
    for (line, desc) in cases {
        t.row(vec![
            line.state_name(me).to_string(),
            desc.to_string(),
            encoding(line),
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
