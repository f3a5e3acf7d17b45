//! The multipoint MPEG service (paper section 3.3): ASPs turn a
//! point-to-point video server into a multipoint one by sharing a live
//! stream among clients on the same segment.

pub mod apps;
pub mod asp;
pub mod scenario;

pub use apps::{MpegClientApp, MpegClientStats, MpegServerApp, MpegServerStats};
pub use asp::{
    CAPTURE_CTL_PORT, MONITOR_QUERY_PORT, MPEG_CAPTURE_ASP, MPEG_CTL_PORT, MPEG_MONITOR_ASP,
};
pub use scenario::{mpeg_sim, run_mpeg, run_mpeg_traced, MpegConfig, MpegResult};
