//! Property-style tests of the simulated WS stack.
//!
//! Originally written with `proptest`; rewritten as deterministic
//! seeded-loop checks (no external dev-dependencies — see the note in
//! `crates/simcore/tests/properties.rs`).

use wsu_simcore::rng::{MasterSeed, StreamRng};
use wsu_wstack::message::{Envelope, Value};
use wsu_wstack::outcome::{OutcomeProfile, ResponseClass};
use wsu_wstack::registry::{Registry, ServiceRecord};
use wsu_wstack::wsdl::{Operation, ServiceDescription, XsdType};

const CASES: usize = 48;

fn rng_for(test: &str) -> StreamRng {
    MasterSeed::new(0x57_53_54_41_43_4B_50_52).stream(test)
}

fn lowercase_name(rng: &mut StreamRng, min_len: usize, max_len: usize) -> String {
    let len = min_len + rng.next_below((max_len - min_len + 1) as u64) as usize;
    (0..len)
        .map(|_| (b'a' + rng.next_below(26) as u8) as char)
        .collect()
}

fn arb_value(rng: &mut StreamRng) -> Value {
    match rng.next_below(4) {
        0 => Value::Int(rng.next_u64() as i64),
        1 => Value::Double(rng.next_u64() as f64 / u64::MAX as f64 * 2e9 - 1e9),
        2 => {
            let len = rng.next_below(21) as usize;
            let alphabet: Vec<char> = ('a'..='z')
                .chain('A'..='Z')
                .chain('0'..='9')
                .chain(std::iter::once(' '))
                .collect();
            Value::Str(
                (0..len)
                    .map(|_| alphabet[rng.next_below(alphabet.len() as u64) as usize])
                    .collect(),
            )
        }
        _ => Value::Bool(rng.next_below(2) == 0),
    }
}

/// set_part/part round-trips arbitrary names and values, keeping one
/// entry per name.
#[test]
fn envelope_parts_round_trip() {
    let mut rng = rng_for("envelope_parts");
    for _ in 0..CASES {
        let n = rng.next_below(20) as usize;
        let entries: Vec<(String, Value)> = (0..n)
            .map(|_| (lowercase_name(&mut rng, 1, 8), arb_value(&mut rng)))
            .collect();
        let mut envelope = Envelope::request("op");
        let mut expected = std::collections::HashMap::new();
        for (name, value) in &entries {
            envelope.set_part(name.clone(), value.clone());
            expected.insert(name.clone(), value.clone());
        }
        assert_eq!(envelope.parts().len(), expected.len());
        for (name, value) in &expected {
            assert_eq!(envelope.part(name), Some(value));
        }
        // The XML-like rendering mentions every part name.
        let xml = envelope.to_xml_like();
        for name in expected.keys() {
            let needle = format!("<{name} ");
            assert!(xml.contains(&needle), "missing part element for {name}");
        }
    }
}

/// Outcome profiles built from any normalised triple sample only
/// positive-probability classes, and class indexing round-trips.
#[test]
fn outcome_profile_support() {
    let mut rng = rng_for("outcome_support");
    for _ in 0..CASES {
        let raw = (
            rng.next_u64() as f64 / u64::MAX as f64,
            rng.next_u64() as f64 / u64::MAX as f64,
            rng.next_u64() as f64 / u64::MAX as f64,
        );
        let total = raw.0 + raw.1 + raw.2;
        if total <= 1e-9 {
            continue;
        }
        let (mut cr, mut er, mut ner);
        cr = raw.0 / total;
        er = raw.1 / total;
        ner = 1.0 - cr - er;
        if ner < 0.0 {
            // Floating-point slack: fold it into the largest component.
            er += ner;
            ner = 0.0;
            if er < 0.0 {
                cr += er;
                er = 0.0;
            }
        }
        let profile = OutcomeProfile::new(cr, er, ner);
        let mut sample_rng = StreamRng::from_seed(rng.next_u64());
        for _ in 0..50 {
            let class = profile.sample(&mut sample_rng);
            assert!(profile.prob(class) > 0.0);
            assert_eq!(ResponseClass::from_index(class.index()), class);
        }
    }
}

/// Registry publish/find/withdraw maintains exact membership for any
/// sequence of names.
#[test]
fn registry_membership() {
    let mut rng = rng_for("registry_membership");
    for _ in 0..CASES {
        let n = 1 + rng.next_below(29) as usize;
        let names: Vec<String> = (0..n).map(|_| lowercase_name(&mut rng, 1, 6)).collect();
        let mut registry = Registry::new();
        let keys: Vec<_> = names
            .iter()
            .map(|n| {
                registry.publish(ServiceRecord::new(
                    n.clone(),
                    format!("http://{n}"),
                    "cat",
                    ServiceDescription::new(n.clone(), "1.0"),
                ))
            })
            .collect();
        assert_eq!(registry.len(), names.len());
        for (key, name) in keys.iter().zip(&names) {
            assert_eq!(&registry.get(*key).unwrap().name, name);
        }
        // Name search finds exactly the matching publications.
        for name in &names {
            let expected = names.iter().filter(|n| *n == name).count();
            assert_eq!(registry.find_by_name(name).len(), expected);
        }
        // Withdraw everything; the registry drains.
        for key in keys {
            registry.withdraw(key).unwrap();
        }
        assert!(registry.is_empty());
    }
}

/// WSDL confidence pairing preserves the base operation untouched for
/// any operation shape.
#[test]
fn paired_confidence_preserves_base() {
    let mut rng = rng_for("paired_confidence");
    for _ in 0..CASES {
        let op_name = lowercase_name(&mut rng, 1, 10);
        let input_count = rng.next_below(5) as usize;
        let inputs: Vec<String> = (0..input_count)
            .map(|_| lowercase_name(&mut rng, 1, 6))
            .collect();
        let mut operation = Operation::new(op_name.clone());
        for (i, input) in inputs.iter().enumerate() {
            operation = operation.with_input(format!("{input}{i}"), XsdType::Str);
        }
        operation = operation.with_output("result", XsdType::Str);
        let mut description = ServiceDescription::new("Svc", "1.0");
        description.add_operation(operation);
        let before = description.operation(&op_name).unwrap().clone();
        description
            .add_paired_confidence_operation(&op_name)
            .unwrap();
        assert_eq!(description.operation(&op_name).unwrap(), &before);
        let paired = description.operation(&format!("{op_name}Conf")).unwrap();
        assert_eq!(paired.request_parts(), before.request_parts());
        assert_eq!(
            paired.response_parts().len(),
            before.response_parts().len() + 1
        );
    }
}
