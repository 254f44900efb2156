//! Intra-replication sharding must be invisible in every output,
//! exactly like the replication pool (`--jobs`, pinned by
//! `parallel_determinism.rs`) one level up: the merged dependability
//! digest of the scale study's world is byte-identical at any shard
//! count.

use wsu_experiments::scalestudy::{run_scale, run_scalestudy, ScaleConfig};

/// The three-release fleet run: the scalestudy world (weighted fleet,
/// mid-run promotion at a global demand id) must produce the identical
/// merged digest at shards {1, 2, 4}.
#[test]
fn fleet_scale_world_digest_is_shard_invariant() {
    let config = ScaleConfig {
        demands: 8_192,
        shard_counts: vec![1, 2, 4],
        cutover: 4_096,
    };
    let serial = run_scale(&config, 0x0BAD_5EED, 1);
    for k in [2, 4] {
        let sharded = run_scale(&config, 0x0BAD_5EED, k);
        assert_eq!(
            serial.stats.digest(),
            sharded.stats.digest(),
            "fleet digest differs at shards={k}"
        );
    }
    // And the full study asserts the same thing internally.
    let report = run_scalestudy(&config, 0x0BAD_5EED);
    assert_eq!(report.digest, serial.stats.digest());
}

/// No shard count need divide the cutover: 4,099 is prime, so every
/// K > 1 splits the demands around it unevenly, and each shard promotes
/// at its own first id past it. Every K still gives the serial digest.
#[test]
fn any_shard_count_gives_the_serial_digest_at_any_cutover() {
    let config = ScaleConfig {
        demands: 8_192,
        shard_counts: vec![1, 2, 3, 4, 8, 16],
        cutover: 4_099,
    };
    let serial = run_scale(&config, 0x0BAD_5EED, 1);
    for &k in &config.shard_counts[1..] {
        let sharded = run_scale(&config, 0x0BAD_5EED, k);
        assert_eq!(
            serial.stats.digest(),
            sharded.stats.digest(),
            "fleet digest differs at shards={k}"
        );
    }
    let report = run_scalestudy(&config, 0x0BAD_5EED);
    assert_eq!(report.runs.len(), 6);
    assert_eq!(report.digest, serial.stats.digest());
}
