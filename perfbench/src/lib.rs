//! A seeded, layer-split benchmark of verified edge reads and durable
//! central writes.
//!
//! One process stands up a durable `CentralServer` and an `EdgeServer`
//! behind `NetServer` on TCP loopback, signs with the RSA-1024 CRT
//! fixture, and drives one named workload ([`workload::Workload`]) at
//! a fixed open-loop rate on one reader connection. Every
//! response is verified and its row counts checked against a seeded
//! reference model. A traced run wraps the program's public seams
//! ([`seams`]) and records spans ([`trace`]) from which the per-layer
//! metrics ([`report`]) are computed. See `README.md` in this directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod run;
pub mod seams;
pub mod smoke;
pub mod stack;
pub mod trace;
pub mod workload;
