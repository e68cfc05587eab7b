//! Address types.
//!
//! A *virtual IP* ([`Vip`]) is a tenant-visible identifier with no location
//! information; a *physical IP* ([`Pip`]) locates a server (or gateway, or
//! switch CPU) in the underlay. Keeping them as distinct newtypes makes it a
//! type error to forward on the wrong address space — the bug class this
//! whole paper is about.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A virtual (tenant-assigned) IPv4 address.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Vip(pub u32);

/// A physical (underlay) IPv4 address.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Pip(pub u32);

/// The compact per-switch identifier carried in the hit-switch tunnel option
/// (§3.3: "each switch is assigned a unique identifier, which it adds to the
/// packet header upon a hit in its local cache").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SwitchTag(pub u16);

/// `v` as a dotted quad.
fn dotted(v: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        (v >> 24) & 0xff,
        (v >> 16) & 0xff,
        (v >> 8) & 0xff,
        v & 0xff
    )
}

impl fmt::Display for Vip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v:{}", dotted(self.0))
    }
}

impl fmt::Display for Pip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p:{}", dotted(self.0))
    }
}

impl fmt::Display for SwitchTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dotted_quad_formatting() {
        assert_eq!(dotted(0x0A00_0001), "10.0.0.1");
        assert_eq!(dotted(0xC0A8_0102), "192.168.1.2");
        assert_eq!(dotted(0), "0.0.0.0");
        assert_eq!(dotted(u32::MAX), "255.255.255.255");
    }

    #[test]
    fn display_marks_address_space() {
        assert_eq!(Vip(1).to_string(), "v:0.0.0.1");
        assert_eq!(Pip(1).to_string(), "p:0.0.0.1");
        assert_eq!(SwitchTag(7).to_string(), "sw#7");
    }
}
