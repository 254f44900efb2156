//! Intra-replication sharding must be invisible in every output,
//! exactly like the replication pool (`--jobs`, pinned by
//! `parallel_determinism.rs`) one level up: the merged dependability
//! digest of the epoch runner's world is byte-identical at any shard
//! count.

use wsu_experiments::scalestudy::{run_scale, run_scalestudy, ScaleConfig};
use wsu_simcore::shard::Shards;

/// The three-release fleet run: the scalestudy world (weighted fleet,
/// mid-run promotion broadcast through the epoch mailbox) must produce
/// the identical merged digest at shards {1, 2, 4}.
#[test]
fn fleet_scale_world_digest_is_shard_invariant() {
    let config = ScaleConfig {
        demands: 8_192,
        shard_counts: vec![1, 2, 4],
        block: 256,
        cutover: 4_096,
    };
    let serial = run_scale(&config, 0x0BAD_5EED, Shards::serial());
    for k in [2, 4] {
        let sharded = run_scale(&config, 0x0BAD_5EED, Shards::new(k));
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
