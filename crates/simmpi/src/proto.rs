//! Wire-protocol packet layout.
//!
//! Header word assignments per packet type (see the `Packet::h` array):
//!
//! | type | h\[0\] | h\[1\] | h\[2\] | h\[3\] | h\[4\] | data |
//! |---|---|---|---|---|---|---|
//! | `EAGER` | tag | xfer id | — | — | — | payload |
//! | `RTS_READ` | tag | total len | src region | xfer id | sender req | — |
//! | `RTS_PIPE` | tag | total len | frag1 xfer | sender req | — | fragment 1 |
//! | `CTS` | sender req | recv region | — | — | — | — |
//! | `FIN_READ` | sender req | xfer id | total len | — | — | — |
//! | `FIN_PIPE` | recv req | — | — | — | — | — |
//! | `BARRIER` | tag | — | — | — | — | — |
//! | `ACK` | next expected seq | — | — | — | — | — |
//! | `NACK` | first missing seq | — | — | — | — | — |
//!
//! `h[5]` is reserved in **every** packet type for the reliability layer's
//! sequence number (`seq + 1`; `0` = unsequenced). It is `0` whenever the
//! fabric is configured loss-free (`FaultPlan::none()`), keeping the wire
//! format byte-identical to the reliability-unaware protocol. `ACK` / `NACK`
//! are themselves unsequenced: cumulative ACKs are idempotent and a lost NACK
//! is recovered by the sender's retransmission timeout.

/// Eager data packet (short messages).
pub(crate) const PT_EAGER: u16 = 1;
/// Rendezvous request-to-send, direct RDMA-Read mode.
pub(crate) const PT_RTS_READ: u16 = 2;
/// Rendezvous request-to-send carrying fragment 1, pipelined mode.
pub(crate) const PT_RTS_PIPE: u16 = 3;
/// Receiver clear-to-send (ACK) naming its registered buffer.
pub(crate) const PT_CTS: u16 = 4;
/// Transfer-complete notification to the sender (direct-read mode).
pub(crate) const PT_FIN_READ: u16 = 5;
/// Transfer-complete notification to the receiver (pipelined mode; rides
/// with the last fragment).
pub(crate) const PT_FIN_PIPE: u16 = 6;
/// Zero-payload synchronization packet (barrier and friends); matched like a
/// normal message but never counted as a data transfer.
pub(crate) const PT_BARRIER: u16 = 7;
/// Reliability-layer cumulative acknowledgment: h\[0\] = next sequence number
/// the receiver expects from this sender (everything below is delivered).
pub(crate) const PT_ACK: u16 = 9;
/// Reliability-layer negative acknowledgment: h\[0\] = first missing sequence
/// number (a gap was observed; the sender should retransmit immediately).
pub(crate) const PT_NACK: u16 = 10;

/// Correlation-word kinds for completion-queue entries (`Completion::user`
/// high byte).
pub mod wr_kind {
    /// Completion of a control packet; no action beyond dropping it.
    pub(crate) const IGNORE: u64 = 0;
    /// Local completion of an eager send.
    pub(crate) const EAGER_SEND: u64 = 1;
    /// Completion of one pipelined RDMA-Write fragment.
    pub(crate) const FRAG_WRITE: u64 = 2;
    /// Completion of a rendezvous RDMA Read (data attached).
    pub(crate) const RDMA_READ: u64 = 3;
    /// Completion of a NIC-matched receive (hw-tag progress model): matched
    /// payload attached, `(src, tag, xfer word)` in the immediate data.
    pub(crate) const HW_RECV: u64 = 4;
}

/// Pack a completion correlation word: kind in the top byte, request id in
/// the low 56 bits.
pub fn pack_user(kind: u64, req: u64) -> u64 {
    debug_assert!(req < (1 << 56), "request id overflow");
    (kind << 56) | req
}

/// Unpack a correlation word into `(kind, request id)`.
pub fn unpack_user(user: u64) -> (u64, u64) {
    (user >> 56, user & ((1 << 56) - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_word_roundtrip() {
        for kind in [
            wr_kind::IGNORE,
            wr_kind::EAGER_SEND,
            wr_kind::FRAG_WRITE,
            wr_kind::RDMA_READ,
            wr_kind::HW_RECV,
        ] {
            let u = pack_user(kind, 123_456);
            assert_eq!(unpack_user(u), (kind, 123_456));
        }
    }

    #[test]
    fn packet_types_are_distinct() {
        let all = [
            PT_EAGER,
            PT_RTS_READ,
            PT_RTS_PIPE,
            PT_CTS,
            PT_FIN_READ,
            PT_FIN_PIPE,
            PT_BARRIER,
            PT_ACK,
            PT_NACK,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
