//! # `fabric` — Xilinx Virtex-style FPGA fabric model
//!
//! This crate is the device substrate for the PR cost-model reproduction.
//! It models the aspects of a partially reconfigurable FPGA fabric that the
//! cost models of Morales-Villanueva & Gordon-Ross (IPPS 2015) consume:
//!
//! * **Resource kinds** ([`ResourceKind`]) — CLB, DSP, BRAM, IOB, CLK — and
//!   counted bundles of them ([`Resources`]).
//! * **Device families** ([`Family`], [`FamilyParams`]) — the Table II
//!   fabric constants (CLBs/DSPs/BRAMs per column per row, LUTs/FFs per CLB)
//!   and the Table IV configuration-plane constants (frames per column,
//!   frame size, initial/final word counts).
//! * **Column layouts and devices** ([`ColumnKind`], [`Device`]) — a device
//!   is a rectangular grid of `rows` fabric rows over an ordered list of
//!   resource columns, mirroring the Virtex-5/-6 two-dimensional PR layout.
//! * **Window search** — locating a span of contiguous columns with a
//!   requested resource-column mix and no IOB/CLK columns, which is the
//!   physical-feasibility check in the paper's Fig. 1 flow.
//!   [`DeviceGeometry`] indexes every achievable column composition of a
//!   device once and answers each probe with one lookup; it is the window
//!   source of the Fig. 1 search. [`Device::find_window`] is the direct
//!   column scan it is checked against.
//! * **Site grid** ([`grid::SiteGrid`]) — a finer-grained view (individual
//!   CLB/DSP/BRAM sites) used by the simulated place-and-route flow in the
//!   `parflow` crate.
//!
//! The device database ([`database`]) contains synthetic-but-realistic
//! layouts for the two parts evaluated in the paper (Virtex-5 LX110T,
//! Virtex-6 LX75T) plus several additional parts per family so the models'
//! portability claims can be exercised. Layout facts stated in the paper
//! (LX110T has 8 fabric rows and exactly one DSP column; LX75T has 3 rows)
//! are preserved exactly; remaining column mixes follow the public Xilinx
//! user guides. See `DESIGN.md` §2 and §5 for the substitution rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod column;
pub mod database;
pub mod device;
pub mod error;
pub mod family;
pub mod geometry;
pub mod grid;
pub mod resource;
pub mod window;

pub use column::ColumnKind;
pub use database::{all_devices, device_by_name};
pub use device::{splitmix64, Device};
pub use error::FabricError;
pub use family::{Family, FamilyParams, FrameGeometry};
pub use geometry::DeviceGeometry;
pub use resource::{ResourceKind, Resources};
pub use window::{Window, WindowRequest};
