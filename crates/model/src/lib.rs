//! # dynmo-model
//!
//! Transformer / GPT model descriptions and analytical cost models used by
//! the DynMo reproduction.
//!
//! The paper trains GPT models parameterized to 24–48 layers (sequence
//! length 2048, hidden size 1024, 32 attention heads) plus two production
//! MoE models (Mixtral-8x7B and LLaMA-MoE-3.5B shapes) on H100 GPUs.  This
//! crate captures:
//!
//! * the model *shape* ([`config::ModelConfig`] with presets mirroring the
//!   paper's experimental section),
//! * per-layer parameter counts and FLOP costs ([`layer`], [`cost`]),
//! * per-layer memory footprints, including Adam optimizer state and
//!   activation memory per micro-batch ([`memory`]),
//! * KV-cache memory per token for autoregressive inference, with a
//!   pruning hook ([`kv_cache`]), and
//! * the device/cluster description used to convert FLOPs into time
//!   ([`device`]).
//!
//! Everything downstream (the pipeline simulator, the dynamism engines, the
//! balancers) works in terms of these layer descriptors, which is what makes
//! the load-balancing algorithms independent of any GPU runtime — exactly
//! the property the paper's "system software layer" claims.

#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod device;
pub mod kv_cache;
pub mod layer;
pub mod memory;
pub mod model;

pub use config::{ModelConfig, ModelPreset, MoeConfig};
pub use cost::CostModel;
pub use device::{ClusterConfig, DeviceSpec};
pub use kv_cache::KvCacheModel;
pub use layer::{LayerDesc, LayerId, LayerKind};
pub use memory::MemoryModel;
pub use model::Model;
