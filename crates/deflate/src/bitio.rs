//! LSB-first bit-level I/O.

use crate::error::DeflateError;

/// Accumulates bits LSB-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bit_buffer: u64,
    bit_count: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Writes the low `count` bits of `bits` (count ≤ 32).
    pub fn write_bits(&mut self, bits: u32, count: u8) {
        debug_assert!(count <= 32);
        debug_assert!(count == 32 || u64::from(bits) < (1u64 << count));
        // Fewer than 32 bits are pending, so the buffer never overflows.
        self.bit_buffer |= u64::from(bits) << self.bit_count;
        self.bit_count += count;
        if self.bit_count >= 32 {
            self.bytes.extend_from_slice(&(self.bit_buffer as u32).to_le_bytes());
            self.bit_buffer >>= 32;
            self.bit_count -= 32;
        }
    }

    /// Flushes the pending bits (the last byte zero-padded) and returns the
    /// bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        let pending = usize::from(self.bit_count.div_ceil(8));
        self.bytes.extend_from_slice(&self.bit_buffer.to_le_bytes()[..pending]);
        self.bytes
    }

    /// Number of bytes the writer would produce if finished now.
    #[cfg(test)]
    pub fn byte_len(&self) -> usize {
        self.bytes.len() + usize::from(self.bit_count.div_ceil(8))
    }
}

/// Reads bits LSB-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    bit_buffer: u64,
    bit_count: u8,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0, bit_buffer: 0, bit_count: 0 }
    }

    /// Reads `count` bits (count ≤ 32).
    ///
    /// # Errors
    ///
    /// Returns [`DeflateError::Truncated`] if the stream is exhausted.
    pub fn read_bits(&mut self, count: u8) -> Result<u32, DeflateError> {
        debug_assert!(count <= 32);
        while self.bit_count < count {
            if self.pos >= self.bytes.len() {
                return Err(DeflateError::Truncated);
            }
            self.bit_buffer |= u64::from(self.bytes[self.pos]) << self.bit_count;
            self.pos += 1;
            self.bit_count += 8;
        }
        let mask = if count == 32 { u64::MAX >> 32 } else { (1u64 << count) - 1 };
        let out = (self.bit_buffer & mask) as u32;
        self.bit_buffer >>= count;
        self.bit_count -= count;
        Ok(out)
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// Returns [`DeflateError::Truncated`] at end of stream.
    pub fn read_bit(&mut self) -> Result<u32, DeflateError> {
        self.read_bits(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut writer = BitWriter::new();
        writer.write_bits(0b101, 3);
        writer.write_bits(0xFF, 8);
        writer.write_bits(0, 1);
        writer.write_bits(0x1234, 16);
        let bytes = writer.into_bytes();
        let mut reader = BitReader::new(&bytes);
        assert_eq!(reader.read_bits(3).unwrap(), 0b101);
        assert_eq!(reader.read_bits(8).unwrap(), 0xFF);
        assert_eq!(reader.read_bits(1).unwrap(), 0);
        assert_eq!(reader.read_bits(16).unwrap(), 0x1234);
    }

    #[test]
    fn zero_count_write_read() {
        let mut writer = BitWriter::new();
        writer.write_bits(0, 0);
        writer.write_bits(1, 1);
        let bytes = writer.into_bytes();
        let mut reader = BitReader::new(&bytes);
        assert_eq!(reader.read_bits(0).unwrap(), 0);
        assert_eq!(reader.read_bit().unwrap(), 1);
    }

    #[test]
    fn exhausted_reader_errors() {
        let mut reader = BitReader::new(&[0xAB]);
        assert_eq!(reader.read_bits(8).unwrap(), 0xAB);
        assert_eq!(reader.read_bits(1), Err(DeflateError::Truncated));
    }

    #[test]
    fn partial_byte_is_zero_padded() {
        let mut writer = BitWriter::new();
        writer.write_bits(0b1, 1);
        let bytes = writer.into_bytes();
        assert_eq!(bytes, vec![0b1]);
    }

    #[test]
    fn writer_len_matches() {
        let mut writer = BitWriter::new();
        assert_eq!(writer.byte_len(), 0);
        writer.write_bits(1, 1);
        assert_eq!(writer.byte_len(), 1);
        writer.write_bits(0xFF, 8);
        assert_eq!(writer.byte_len(), 2);
    }

    #[test]
    fn matches_a_byte_at_a_time_writer() {
        let mut rng = crate::testrand::TestRng::new(0xB175);
        for _ in 0..32 {
            let mut writer = BitWriter::new();
            let (mut expected, mut buffer, mut count) = (Vec::new(), 0u64, 0u8);
            for _ in 0..rng.below(400) {
                let width = rng.below(33) as u8;
                let bits = (rng.next_u64() & ((1u64 << width) - 1)) as u32;
                writer.write_bits(bits, width);
                buffer |= u64::from(bits) << count;
                count += width;
                while count >= 8 {
                    expected.push(buffer as u8);
                    buffer >>= 8;
                    count -= 8;
                }
            }
            if count > 0 {
                expected.push(buffer as u8);
            }
            assert_eq!(writer.byte_len(), expected.len());
            assert_eq!(writer.into_bytes(), expected);
        }
    }

    #[test]
    fn many_single_bits() {
        let pattern: Vec<u32> = (0..1000).map(|i| (i * 7 % 2) as u32).collect();
        let mut writer = BitWriter::new();
        for &bit in &pattern {
            writer.write_bits(bit, 1);
        }
        let bytes = writer.into_bytes();
        let mut reader = BitReader::new(&bytes);
        for &bit in &pattern {
            assert_eq!(reader.read_bit().unwrap(), bit);
        }
    }
}
