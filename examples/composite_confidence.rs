//! Confidence in a composite Web Service built from third-party
//! components (paper Section 2.2).
//!
//! An e-shop composes `Inventory`, `Payments` and `Shipping`, each with
//! the confidence its provider publishes, and bounds the composite's
//! confidence from them.
//!
//! Run with: `cargo run --release --example composite_confidence`

use composite_ws_upgrade::core::composite::CompositeService;
use composite_ws_upgrade::simcore::rng::MasterSeed;
use composite_ws_upgrade::simcore::time::SimDuration;
use composite_ws_upgrade::wstack::endpoint::SyntheticService;
use composite_ws_upgrade::wstack::message::Envelope;
use composite_ws_upgrade::wstack::outcome::{OutcomeProfile, ResponseClass};
use composite_ws_upgrade::wstack::registry::PublishedConfidence;

fn main() {
    let seed = MasterSeed::new(808);

    // --- The composite e-shop ----------------------------------------
    let mut shop = CompositeService::builder("EShop")
        .glue_time(SimDuration::from_secs(0.02))
        .glue_confidence(PublishedConfidence::new(1e-4, 0.999))
        .component_with_confidence(
            "inventory",
            SyntheticService::builder("Inventory", "2.3")
                .outcomes(OutcomeProfile::new(0.999, 0.0005, 0.0005))
                .exec_time_mean(0.15)
                .build(),
            PublishedConfidence::new(1e-3, 0.99),
        )
        .component_with_confidence(
            "payments",
            SyntheticService::builder("Payments", "5.1")
                .outcomes(OutcomeProfile::new(0.9995, 0.00025, 0.00025))
                .exec_time_mean(0.25)
                .build(),
            PublishedConfidence::new(5e-4, 0.98),
        )
        .component_with_confidence(
            "shipping",
            SyntheticService::builder("Shipping", "1.0")
                .outcomes(OutcomeProfile::new(0.998, 0.001, 0.001))
                .exec_time_mean(0.2)
                .build(),
            PublishedConfidence::new(2e-3, 0.95),
        )
        .build();

    let composed = shop.composed_confidence().expect("all confidences known");
    println!(
        "composite confidence (union bound): P(pfd <= {:.2e}) >= {:.4}",
        composed.pfd_target, composed.confidence
    );

    let mut rng = seed.stream("shop-traffic");
    let mut correct = 0u32;
    let n = 5_000;
    for _ in 0..n {
        let inv = shop.invoke(&Envelope::request("checkout"), &mut rng);
        if inv.class == ResponseClass::Correct {
            correct += 1;
        }
    }
    println!(
        "measured composite correctness over {n} checkouts: {:.4}",
        correct as f64 / n as f64
    );
}
