//! Workload generators for the five datasets of §5 plus the migration
//! incast of §5.2.
//!
//! The paper replays proprietary packet traces; per DESIGN.md §4 we resample
//! the *published* distributions they are built from:
//!
//! * **Hadoop** — Facebook's Hadoop cluster flow sizes (Roy et al.,
//!   SIGCOMM'15): short flows, heavy cross-flow destination reuse;
//! * **WebSearch** — the DCTCP search workload: mostly bytes in multi-MB
//!   flows, minimal destination sharing;
//! * **Alibaba** — microservice RPCs with Zipf service popularity
//!   calibrated to "over 95% of the total requests are processed by just 5%
//!   of the microservices" (Luo et al., SoCC'21);
//! * **Microbursts** — mice-flow UDP bursts with a 158 µs 99th-percentile
//!   burst duration;
//! * **Video** — 64 × 48 Mb/s UDP senders, no destination reuse;
//! * **Incast** — 64 UDP senders to one VM for the §5.2 migration study.
//!
//! Each dataset is one plain function in [`datasets`] that returns the whole
//! trace as a `Vec<TraceFlow>` in start order. Every generator is
//! deterministic in its seed, and the TCP traces arrive at a Poisson rate
//! matched to the paper's load ("network load of 30% with 100 Gbps links").
//! What §5 fixes — load, NIC rate, Zipf skews, the video and incast shapes —
//! is a constant beside the generator that reads it; a config struct holds
//! only what some run varies (pool, flow count, duration, seed).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod dist;
pub mod spec;

pub use datasets::{
    alibaba, hadoop, incast, microbursts, video, websearch, AlibabaConfig, FlowSource,
    HadoopConfig, MicroburstsConfig, TraceStats, WebSearchConfig,
};
pub use dist::{EmpiricalCdf, Zipf};
pub use spec::{FlowProfile, TraceFlow};
