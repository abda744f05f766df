//! Off-chip DRAM.
//!
//! DRAM is where the extraction software dumps what it pulls out of the
//! SRAMs ("a set of general load/store instructions moves the data from
//! the general-purpose CPU registers to DRAM for further processing" —
//! §6.1). The optional scrambler models the DDR3/DDR4 session-key
//! scrambling the paper's related work discusses: it protects the DRAM
//! *module* against cold boot, and does nothing for on-chip SRAM.

use crate::cache::Backing;
use crate::error::SocError;
use serde::{Deserialize, Serialize};

/// Byte-addressable DRAM with an optional bus scrambler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dram {
    bytes: Vec<u8>,
    /// Session key of the scrambler; regenerated on every power cycle.
    scramble_key: Option<u64>,
}

impl Dram {
    /// Creates `size` bytes of unscrambled DRAM.
    pub fn new(size: usize) -> Self {
        Dram { bytes: vec![0; size], scramble_key: None }
    }

    /// Enables the DDR4-style scrambler with a session key.
    pub fn enable_scrambler(&mut self, session_key: u64) {
        self.scramble_key = Some(session_key);
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the DRAM is zero-sized.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    fn check_range(&self, addr: u64, len: usize) -> Result<usize, SocError> {
        let a = usize::try_from(addr).map_err(|_| SocError::Unmapped { addr })?;
        match a.checked_add(len) {
            Some(end) if end <= self.bytes.len() => Ok(a),
            _ => Err(SocError::Unmapped { addr }),
        }
    }

    /// Logical (descrambled) read, as the memory controller presents it.
    ///
    /// # Errors
    ///
    /// [`SocError::Unmapped`] past the end.
    pub fn read(&self, addr: u64, len: usize) -> Result<Vec<u8>, SocError> {
        let a = self.check_range(addr, len)?;
        Ok(match self.scramble_key {
            None => self.bytes[a..a + len].to_vec(),
            Some(key) => {
                (0..len).map(|i| self.bytes[a + i] ^ Self::pad(key, addr + i as u64)).collect()
            }
        })
    }

    /// Logical write through the controller.
    ///
    /// # Errors
    ///
    /// [`SocError::Unmapped`] past the end.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), SocError> {
        let a = self.check_range(addr, data.len())?;
        match self.scramble_key {
            None => self.bytes[a..a + data.len()].copy_from_slice(data),
            Some(key) => {
                for (i, &b) in data.iter().enumerate() {
                    self.bytes[a + i] = b ^ Self::pad(key, addr + i as u64);
                }
            }
        }
        Ok(())
    }

    /// What a *physical* probe on the DRAM chip sees (the cold-boot view):
    /// raw cells, scrambled if the controller scrambles.
    ///
    /// # Errors
    ///
    /// [`SocError::Unmapped`] past the end.
    pub fn raw_cells(&self, addr: u64, len: usize) -> Result<&[u8], SocError> {
        let a = self.check_range(addr, len)?;
        Ok(&self.bytes[a..a + len])
    }

    /// Rotates the scrambler session key (happens at every boot).
    pub fn rotate_scramble_key(&mut self, new_key: u64) {
        if self.scramble_key.is_some() {
            self.scramble_key = Some(new_key);
        }
    }

    /// Every raw cell byte, writable and bypassing the scrambler — the
    /// physics path used by the remanence model.
    pub(crate) fn cells_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    fn pad(key: u64, addr: u64) -> u8 {
        // A cheap keyed mix; real scramblers use LFSRs seeded per burst.
        let x = key ^ addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((x >> 32) ^ (x >> 11) ^ x) as u8
    }
}

impl Backing for Dram {
    fn read_line(&mut self, line_addr: u64, buf: &mut [u8]) -> Result<(), SocError> {
        let data = self.read(line_addr, buf.len())?;
        buf.copy_from_slice(&data);
        Ok(())
    }

    fn write_line(&mut self, line_addr: u64, buf: &[u8]) -> Result<(), SocError> {
        self.write(line_addr, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_roundtrip() {
        let mut d = Dram::new(1024);
        d.write(100, &[1, 2, 3]).unwrap();
        assert_eq!(d.read(100, 3).unwrap(), vec![1, 2, 3]);
        assert_eq!(d.raw_cells(100, 3).unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn scrambler_hides_raw_cells_but_roundtrips_logically() {
        let mut d = Dram::new(1024);
        d.enable_scrambler(0xFEED_FACE);
        d.write(0, b"secret key bytes").unwrap();
        assert_eq!(d.read(0, 16).unwrap(), b"secret key bytes".to_vec());
        assert_ne!(d.raw_cells(0, 16).unwrap(), b"secret key bytes" as &[u8]);
    }

    #[test]
    fn key_rotation_breaks_old_images() {
        let mut d = Dram::new(64);
        d.enable_scrambler(1);
        d.write(0, &[0xAA; 16]).unwrap();
        d.rotate_scramble_key(2);
        assert_ne!(d.read(0, 16).unwrap(), vec![0xAA; 16]);
    }

    #[test]
    fn rotation_is_noop_without_scrambler() {
        let mut d = Dram::new(64);
        d.write(0, &[0xAA; 16]).unwrap();
        d.rotate_scramble_key(2);
        assert_eq!(d.read(0, 16).unwrap(), vec![0xAA; 16]);
    }

    #[test]
    fn out_of_range_is_unmapped() {
        let mut d = Dram::new(16);
        assert!(matches!(d.read(8, 16), Err(SocError::Unmapped { .. })));
        assert!(matches!(d.write(17, &[0]), Err(SocError::Unmapped { .. })));
        assert!(matches!(d.raw_cells(16, 1), Err(SocError::Unmapped { .. })));
    }
}
