//! Table-driven CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`):
//! the one checksum of every byte format that leaves a process — TCP
//! frames ([`net`](crate::net)) and the WAL records of `hope-core`'s
//! `durable` module.
//!
//! Hand-rolled because the workspace builds offline: no `crc` crate. The
//! choice of CRC-32 matters for the recovery guarantees — it detects
//! every single-bit error and every burst up to 32 bits, which is exactly
//! the fault model of the store's `StorageFault` (bit flips and torn
//! suffixes) and of a damaged frame.

/// One CRC table entry per byte value, built at compile time.
const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// CRC-32 of the concatenation of `parts`, so a frame checksums its
/// header fields and payload without copying them into one buffer.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let mut crc = !0u32;
    for part in parts {
        for &b in *part {
            crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b""]), 0);
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let one_shot = crc32(&[b"hello world"]);
        assert_eq!(crc32(&[b"hello ", b"world"]), one_shot);
        assert_eq!(crc32(&[b"h", b"", b"ello world"]), one_shot);
    }

    #[test]
    fn detects_every_single_bit_flip() {
        let base = b"the quick brown fox".to_vec();
        let want = crc32(&[&base]);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&[&flipped]), want, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
