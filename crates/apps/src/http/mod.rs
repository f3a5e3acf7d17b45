//! The extensible HTTP server with load balancing (paper section 3.2):
//! a gateway ASP turns two stock web servers into one scalable virtual
//! server by rewriting connections, without touching server or client.

pub mod asp;
pub mod client;
pub mod native;
pub mod scenario;
pub mod server;
pub mod trace;

pub use asp::{
    HTTP_GATEWAY_3SRV_ASP, HTTP_GATEWAY_ASP, HTTP_GATEWAY_FAILOVER_ASP, HTTP_GATEWAY_PORTHASH_ASP,
    HTTP_GATEWAY_RANDOM_ASP, SERVER0_ADDR, SERVER1_ADDR, SERVER2_ADDR, VIRTUAL_ADDR,
};
pub use client::HttpClientApp;
pub use native::NativeHttpGateway;
pub use scenario::{http_sim, run_http, run_http_traced, ClusterMode, HttpConfig, HttpResult};
pub use server::{HttpServerApp, HTTP_PORT};
pub use trace::{Trace, TraceSpec};
