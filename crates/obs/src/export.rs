//! The live `/metrics` + `/snapshot` + `/health` endpoint: one
//! [`Server`] worker with three `GET` routes.
//!
//! [`MetricsExporter`] serves:
//!
//! * `/metrics` — the last published Prometheus-text snapshot,
//! * `/snapshot` — the last published JSON dependability snapshot,
//! * `/health` — a constant liveness probe.
//!
//! The simulation is single-threaded (`SharedRegistry` is
//! `Rc<RefCell<…>>` and not `Send`), so the exporter never touches the
//! registry: the owning thread renders a snapshot **string** and
//! [`publish_metrics`](MetricsExporter::publish_metrics)es it into an
//! `Arc<Mutex<String>>` whenever convenient — outside the demand loop,
//! so serving adds zero allocations to the hot path (the server
//! allocates on its own thread). Responses are therefore byte-identical
//! to the in-process rendering at publish time.
//!
//! A head that does not parse earns the server's `400`; a parsed request
//! whose method is not `GET` earns `405` with an `Allow: GET` header, and
//! any other path `404`.

use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use crate::http::{Handler, Request, Response, Server};

/// The published bodies, shared by the owning thread and the server's
/// worker.
#[derive(Debug)]
struct Bodies {
    metrics: Mutex<String>,
    snapshot: Mutex<String>,
}

/// A live `/metrics` + `/snapshot` + `/health` endpoint.
///
/// Dropping the exporter shuts its server down.
#[derive(Debug)]
pub struct MetricsExporter {
    bodies: Arc<Bodies>,
    server: Server,
}

impl MetricsExporter {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the server's one worker. `/metrics` serves an empty body
    /// and `/snapshot` `{}` until something is published.
    pub fn bind(addr: &str) -> io::Result<Self> {
        let bodies = Arc::new(Bodies {
            metrics: Mutex::new(String::new()),
            snapshot: Mutex::new(String::from("{}")),
        });
        let served = Arc::clone(&bodies);
        let server = Server::start(addr, 1, move |_| Routes(Arc::clone(&served)))?;
        Ok(Self { bodies, server })
    }

    /// The bound address (reports the actual port after binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Publishes the Prometheus-text body served on `/metrics`.
    pub fn publish_metrics(&self, text: &str) {
        if let Ok(mut slot) = self.bodies.metrics.lock() {
            slot.clear();
            slot.push_str(text);
        }
    }

    /// Publishes the JSON body served on `/snapshot`.
    pub fn publish_snapshot(&self, json: &str) {
        if let Ok(mut slot) = self.bodies.snapshot.lock() {
            slot.clear();
            slot.push_str(json);
        }
    }

    /// Stops the server and waits for its worker to exit.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// The exporter's routes, held by its server's one worker.
struct Routes(Arc<Bodies>);

impl Handler for Routes {
    fn handle(&mut self, request: &Request) -> Response {
        if request.method != "GET" {
            return Response::method_not_allowed("GET");
        }
        let bodies = &self.0;
        match request.path.as_str() {
            "/metrics" => {
                let body = bodies.metrics.lock().map(|s| s.clone()).unwrap_or_default();
                Response::bytes(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    body.into_bytes(),
                )
            }
            "/snapshot" => {
                let body = bodies
                    .snapshot
                    .lock()
                    .map(|s| s.clone())
                    .unwrap_or_default();
                Response::json(200, body)
            }
            "/health" => Response::text(200, "ok\n"),
            _ => Response::text(404, "not found\n"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::http_get;

    #[test]
    fn serves_published_metrics_byte_identically() {
        let exporter = MetricsExporter::bind("127.0.0.1:0").expect("bind");
        let snapshot = "# TYPE wsu_demands_total counter\nwsu_demands_total 42\n";
        exporter.publish_metrics(snapshot);
        let response = http_get(exporter.local_addr(), "/metrics").expect("GET /metrics");
        assert_eq!(response.status, 200);
        assert_eq!(response.body, snapshot);
        exporter.shutdown();
    }

    #[test]
    fn health_and_snapshot_routes_respond() {
        let exporter = MetricsExporter::bind("127.0.0.1:0").expect("bind");
        exporter.publish_snapshot("{\"demands\":7}");
        let health = http_get(exporter.local_addr(), "/health").expect("GET /health");
        assert_eq!(health.status, 200);
        assert_eq!(health.body, "ok\n");
        let snap = http_get(exporter.local_addr(), "/snapshot").expect("GET /snapshot");
        assert_eq!(snap.status, 200);
        assert_eq!(snap.body, "{\"demands\":7}");
    }

    #[test]
    fn unknown_route_is_404() {
        let exporter = MetricsExporter::bind("127.0.0.1:0").expect("bind");
        let response = http_get(exporter.local_addr(), "/nope").expect("GET /nope");
        assert_eq!(response.status, 404);
    }

    #[test]
    fn republishing_replaces_the_served_body() {
        let exporter = MetricsExporter::bind("127.0.0.1:0").expect("bind");
        exporter.publish_metrics("a 1\n");
        exporter.publish_metrics("a 2\n");
        let response = http_get(exporter.local_addr(), "/metrics").expect("GET");
        assert_eq!(response.body, "a 2\n");
    }

    #[test]
    fn query_strings_are_ignored() {
        let exporter = MetricsExporter::bind("127.0.0.1:0").expect("bind");
        exporter.publish_metrics("m 1\n");
        let response = http_get(exporter.local_addr(), "/metrics?x=1").expect("GET");
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "m 1\n");
    }
}
