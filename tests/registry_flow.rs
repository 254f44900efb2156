//! Integration of the WS-stack pieces: registry discovery, release
//! links as the upgrade notification, confidence publication and
//! description evolution — the full provider/consumer workflow around a
//! managed upgrade.

use wsu_wstack::registry::{PublishedConfidence, Registry, ServiceRecord};
use wsu_wstack::wsdl::{Operation, ServiceDescription, XsdType};

fn wsdl(release: &str) -> ServiceDescription {
    let mut d = ServiceDescription::new("Quote", release);
    d.add_operation(
        Operation::new("getQuote")
            .with_input("symbol", XsdType::Str)
            .with_output("price", XsdType::Double),
    );
    d
}

#[test]
fn provider_publishes_upgrade_and_consumers_learn_of_it() {
    let mut registry = Registry::new();

    // Provider publishes 1.0; consumer discovers it.
    let old = registry.publish(ServiceRecord::new(
        "Quote",
        "http://q/1.0",
        "finance",
        wsdl("1.0"),
    ));
    let found = registry.find_by_name("Quote");
    assert_eq!(found.len(), 1);

    // Provider deploys 1.1 side by side and links it to 1.0.
    let new = registry.publish(ServiceRecord::new(
        "Quote",
        "http://q/1.1",
        "finance",
        wsdl("1.1"),
    ));
    registry.link_new_release(old, new).unwrap();

    // Consumer follows the link to the new release.
    assert_eq!(registry.newer_release(old).unwrap(), Some(new));
    assert_eq!(registry.get(new).unwrap().uri, "http://q/1.1");

    // During the managed upgrade, the provider publishes confidence for
    // the new release, updating it as evidence accumulates.
    registry
        .publish_confidence(new, PublishedConfidence::new(1e-3, 0.42))
        .unwrap();
    registry
        .publish_confidence(new, PublishedConfidence::new(1e-3, 0.97))
        .unwrap();
    assert_eq!(
        registry.get(new).unwrap().confidence.unwrap().confidence,
        0.97
    );

    // After the switch the old release is withdrawn; its link goes too.
    registry.withdraw(old).unwrap();
    assert!(registry.get(old).is_none());
    assert_eq!(registry.find_by_name("Quote").len(), 1);
}

#[test]
fn interface_evolution_is_backward_compatible_via_pairing() {
    // The provider wants to publish confidence without breaking old
    // consumers: option 3 of Section 6.2.
    let mut description = wsdl("1.1");
    description
        .add_paired_confidence_operation("getQuote")
        .unwrap();

    // Old consumers still see getQuote unchanged...
    let base = description.operation("getQuote").unwrap();
    assert_eq!(base.response_parts().len(), 1);
    // ...new consumers switch to getQuoteConf.
    let paired = description.operation("getQuoteConf").unwrap();
    assert_eq!(paired.request_parts(), base.request_parts());
    assert!(paired.publishes_confidence());

    // The WSDL rendering carries both.
    let text = description.to_wsdl_like();
    assert!(text.contains("GetQuoteRequest"));
    assert!(text.contains("GetQuoteConfRequest"));
}

#[test]
fn category_search_spans_providers() {
    let mut registry = Registry::new();
    for (name, category) in [
        ("Quote", "finance"),
        ("Payments", "finance"),
        ("Weather", "meteo"),
    ] {
        registry.publish(ServiceRecord::new(
            name,
            format!("http://{name}/1.0"),
            category,
            ServiceDescription::new(name, "1.0"),
        ));
    }
    assert_eq!(registry.find_by_category("finance").len(), 2);
    assert_eq!(registry.find_by_category("meteo").len(), 1);
    assert_eq!(registry.len(), 3);
}
