//! The runner frame decoder reads journal bytes, which are external input.
//! The journal's frame digest rejects damaged bytes before they get here,
//! so this sweep feeds damaged frames to `Runner::decode` directly: every
//! prefix and every single-byte substitution of two valid frames. Each
//! answer is an error or a runner whose frame encodes back to exactly the
//! bytes it came from — never a panic, and never a non-canonical frame
//! accepted.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tmc_bench::script::{from_trace, Runner};
use tmc_core::{FaultSpec, System, SystemConfig};
use tmc_simcore::SimRng;
use tmc_workload::{Placement, SharedBlockWorkload};

/// A frame taken mid-script, so the oracle image, the accumulators and
/// (with faults) the injector are all live.
fn mid_run_frame(cfg: SystemConfig) -> Vec<u8> {
    let trace = SharedBlockWorkload::new(4, 16, 0.3)
        .references(300)
        .placement(Placement::Adjacent { base: 0 })
        .generate(8, &mut SimRng::seed_from(17));
    let mut sys = System::new(cfg).expect("valid config");
    sys.set_tracing(true);
    let mut runner = Runner::framed(sys);
    assert!(!runner.run(&from_trace(&trace), Some(180), None).unwrap());
    runner.encode().expect("encode").to_vec()
}

#[test]
fn frame_decoder_never_panics_on_truncated_or_substituted_bytes() {
    let decode = |bytes: &[u8], what: &str| -> bool {
        let decoded = catch_unwind(AssertUnwindSafe(|| Runner::decode(bytes)))
            .unwrap_or_else(|_| panic!("{what}: decode panicked"));
        match decoded {
            Ok(mut runner) => {
                let again = runner.encode().unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(again, bytes, "{what}: accepted a non-canonical frame");
                true
            }
            Err(_) => false,
        }
    };
    let faults = FaultSpec::new(7).count(6).horizon(200).mean_outage(20);
    for (name, cfg) in [
        ("fault-free N=8", SystemConfig::new(8)),
        ("faulty N=8", SystemConfig::new(8).faults(faults)),
    ] {
        let frame = mid_run_frame(cfg);
        assert!(decode(&frame, name));
        for cut in 0..frame.len() {
            assert!(!decode(&frame[..cut], &format!("{name}, prefix {cut}")));
        }
        let mut rejected = 0;
        let mut mutant = frame.clone();
        for i in 0..frame.len() {
            for b in [0x00, 0x01, 0x7f, 0x80, 0xff] {
                if b == frame[i] {
                    continue;
                }
                mutant[i] = b;
                let ok = decode(&mutant, &format!("{name}, byte {i} = {b:#04x}"));
                assert!(!ok || i >= 4, "{name}: a bad version byte {i} was accepted");
                rejected += usize::from(!ok);
            }
            mutant[i] = frame[i];
        }
        assert!(
            rejected > frame.len() * 2,
            "{name}: only {rejected} of {} substitutions rejected",
            frame.len() * 5
        );
    }
}
