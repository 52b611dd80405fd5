//! Core configuration: pipeline widths, buffer sizes, and latencies.
//!
//! The default configuration is Skylake-server-class, loosely matching the
//! Xeon Gold 6126 the paper measures: 4-wide allocation/retirement, a
//! 224-entry ROB, 8 execution ports, a DSB-fed front-end, and a four-level
//! memory hierarchy.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned when a [`CoreConfig`] fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfigError {
    /// The offending field.
    pub field: &'static str,
    /// The constraint that was violated.
    pub reason: String,
}

impl fmt::Display for InvalidConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid core config: {}: {}", self.field, self.reason)
    }
}

impl std::error::Error for InvalidConfigError {}

/// Memory-hierarchy latencies and capacities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// L1D hit latency in cycles.
    pub l1_latency: u64,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// L3 hit latency in cycles.
    pub l3_latency: u64,
    /// DRAM access latency in cycles.
    pub dram_latency: u64,
    /// Maximum outstanding L1D misses (MSHRs).
    pub mshrs: usize,
    /// Maximum in-flight DRAM transactions (a crude bandwidth limit).
    pub dram_queue: usize,
    /// Store-buffer capacity (in-flight stores awaiting drain to the L1).
    pub store_buffer: usize,
    /// Extra latency of a locked (atomic) load, which also serializes
    /// against other locked operations.
    pub lock_latency: u64,
    /// Instruction-cache miss penalty in cycles.
    pub icache_miss_latency: u64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            l1_latency: 4,
            l2_latency: 14,
            l3_latency: 44,
            dram_latency: 200,
            mshrs: 10,
            dram_queue: 16,
            store_buffer: 56,
            lock_latency: 20,
            icache_miss_latency: 30,
        }
    }
}

/// Front-end widths and penalties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontendConfig {
    /// µops per cycle deliverable from the decoded stream buffer.
    pub dsb_width: u64,
    /// µops per cycle deliverable from the legacy (MITE) decode pipeline.
    /// Realistically limited by the 16-byte fetch window; noticeably
    /// narrower than the DSB.
    pub mite_width: u64,
    /// µops per cycle deliverable from the microcode sequencer.
    pub ms_width: u64,
    /// Cycles lost when switching into the microcode sequencer.
    pub ms_switch_penalty: u64,
    /// IDQ capacity in µops.
    pub idq_capacity: u64,
    /// Front-end refill delay after a branch-misprediction redirect.
    pub mispredict_redirect_penalty: u64,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            dsb_width: 6,
            mite_width: 2,
            ms_width: 4,
            ms_switch_penalty: 2,
            idq_capacity: 64,
            mispredict_redirect_penalty: 16,
        }
    }
}

/// Largest accepted `BackendConfig::rob_size`: the core sizes its
/// dependency-tracking ring to the ROB.
const MAX_ROB_SIZE: u64 = 8192;

/// Back-end widths and buffer sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackendConfig {
    /// Allocation (rename/issue) width in µops per cycle. This is TMA's
    /// "slots per cycle" pipeline width.
    pub issue_width: u64,
    /// Retirement width in µops per cycle.
    pub retire_width: u64,
    /// Reorder-buffer capacity in µops (at most 8192).
    pub rob_size: u64,
    /// Reservation-station (scheduler) capacity in µops.
    pub rs_size: u64,
    /// Number of execution ports.
    pub ports: usize,
    /// Integer-divide latency (unpipelined).
    pub int_div_latency: u64,
    /// Floating-point divide latency (unpipelined).
    pub fp_div_latency: u64,
    /// Allocator-stall cycles charged per branch-misprediction recovery.
    pub recovery_penalty: u64,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            issue_width: 4,
            retire_width: 4,
            rob_size: 224,
            rs_size: 97,
            ports: 8,
            int_div_latency: 20,
            fp_div_latency: 14,
            recovery_penalty: 14,
        }
    }
}

/// Complete configuration of a simulated core.
///
/// ```
/// use spire_sim::CoreConfig;
///
/// let config = CoreConfig::skylake_server();
/// assert_eq!(config.backend.issue_width, 4);
/// config.validate().expect("default config is valid");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Front-end parameters.
    pub frontend: FrontendConfig,
    /// Back-end parameters.
    pub backend: BackendConfig,
    /// Memory-hierarchy parameters.
    pub memory: MemoryConfig,
}

impl CoreConfig {
    /// A Skylake-server-class configuration (the default), approximating
    /// the paper's Xeon Gold 6126.
    pub fn skylake_server() -> Self {
        CoreConfig::default()
    }

    /// A deliberately small configuration for fast unit tests: narrow
    /// buffers make resource stalls easy to provoke.
    pub fn tiny() -> Self {
        CoreConfig {
            frontend: FrontendConfig {
                dsb_width: 4,
                mite_width: 2,
                ms_width: 2,
                ms_switch_penalty: 2,
                idq_capacity: 16,
                mispredict_redirect_penalty: 8,
            },
            backend: BackendConfig {
                issue_width: 2,
                retire_width: 2,
                rob_size: 16,
                rs_size: 8,
                ports: 4,
                int_div_latency: 10,
                fp_div_latency: 8,
                recovery_penalty: 4,
            },
            memory: MemoryConfig {
                l1_latency: 2,
                l2_latency: 6,
                l3_latency: 15,
                dram_latency: 50,
                mshrs: 4,
                dram_queue: 4,
                store_buffer: 8,
                lock_latency: 8,
                icache_miss_latency: 10,
            },
        }
    }

    /// Validates structural constraints between the fields.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfigError`] when a width or capacity is zero,
    /// when the port count exceeds the internal limit of 16, or when cache
    /// latencies are not monotonically increasing with distance.
    pub fn validate(&self) -> Result<(), InvalidConfigError> {
        fn nonzero(field: &'static str, v: u64) -> Result<(), InvalidConfigError> {
            if v == 0 {
                Err(InvalidConfigError {
                    field,
                    reason: "must be non-zero".to_owned(),
                })
            } else {
                Ok(())
            }
        }
        nonzero("frontend.dsb_width", self.frontend.dsb_width)?;
        nonzero("frontend.mite_width", self.frontend.mite_width)?;
        nonzero("frontend.ms_width", self.frontend.ms_width)?;
        nonzero("frontend.idq_capacity", self.frontend.idq_capacity)?;
        nonzero("backend.issue_width", self.backend.issue_width)?;
        nonzero("backend.retire_width", self.backend.retire_width)?;
        if self.backend.rob_size == 0 || self.backend.rob_size > MAX_ROB_SIZE {
            return Err(InvalidConfigError {
                field: "backend.rob_size",
                reason: format!(
                    "must be within 1..={MAX_ROB_SIZE}, got {}",
                    self.backend.rob_size
                ),
            });
        }
        nonzero("backend.rs_size", self.backend.rs_size)?;
        nonzero("memory.l1_latency", self.memory.l1_latency)?;
        if self.backend.ports == 0 || self.backend.ports > 16 {
            return Err(InvalidConfigError {
                field: "backend.ports",
                reason: format!("must be within 1..=16, got {}", self.backend.ports),
            });
        }
        if self.memory.mshrs == 0 {
            return Err(InvalidConfigError {
                field: "memory.mshrs",
                reason: "must be non-zero".to_owned(),
            });
        }
        if self.memory.dram_queue == 0 {
            return Err(InvalidConfigError {
                field: "memory.dram_queue",
                reason: "must be non-zero".to_owned(),
            });
        }
        if self.memory.store_buffer == 0 {
            return Err(InvalidConfigError {
                field: "memory.store_buffer",
                reason: "must be non-zero".to_owned(),
            });
        }
        let m = &self.memory;
        if !(m.l1_latency <= m.l2_latency
            && m.l2_latency <= m.l3_latency
            && m.l3_latency <= m.dram_latency)
        {
            return Err(InvalidConfigError {
                field: "memory",
                reason: format!(
                    "latencies must grow with distance: l1={} l2={} l3={} dram={}",
                    m.l1_latency, m.l2_latency, m.l3_latency, m.dram_latency
                ),
            });
        }
        if self.backend.rs_size > self.backend.rob_size {
            return Err(InvalidConfigError {
                field: "backend.rs_size",
                reason: "scheduler cannot outsize the reorder buffer".to_owned(),
            });
        }
        Ok(())
    }

    /// TMA pipeline slots per cycle (the allocation width).
    pub fn slots_per_cycle(&self) -> u64 {
        self.backend.issue_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        CoreConfig::default().validate().unwrap();
        CoreConfig::skylake_server().validate().unwrap();
        CoreConfig::tiny().validate().unwrap();
    }

    #[test]
    fn zero_width_is_rejected() {
        let mut c = CoreConfig::default();
        c.backend.issue_width = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn non_monotone_latencies_are_rejected() {
        let mut c = CoreConfig::default();
        c.memory.l2_latency = 1;
        let err = c.validate().unwrap_err();
        assert_eq!(err.field, "memory");
        assert!(err.to_string().contains("latencies"));
    }

    #[test]
    fn oversized_scheduler_is_rejected() {
        let mut c = CoreConfig::default();
        c.backend.rs_size = c.backend.rob_size + 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn oversized_rob_is_rejected() {
        let mut c = CoreConfig::default();
        c.backend.rob_size = MAX_ROB_SIZE + 1;
        assert_eq!(c.validate().unwrap_err().field, "backend.rob_size");
        c.backend.rob_size = MAX_ROB_SIZE;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn too_many_ports_rejected() {
        let mut c = CoreConfig::default();
        c.backend.ports = 17;
        assert!(c.validate().is_err());
    }

    #[test]
    fn slots_per_cycle_is_issue_width() {
        assert_eq!(CoreConfig::default().slots_per_cycle(), 4);
    }

    #[test]
    fn config_serde_round_trip() {
        let c = CoreConfig::tiny();
        let json = serde_json::to_string(&c).unwrap();
        let back: CoreConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
