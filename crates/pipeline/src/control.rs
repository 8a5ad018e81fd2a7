//! The TDRC control plane: wire-serializable request/response frames for
//! the audit daemon.
//!
//! [`ControlFrame`] is the message set a client and an
//! [`crate::AuditService`] daemon exchange: submit a TDRB batch, stream
//! back per-session verdicts, finish with a fleet summary (or an in-band
//! error), shut down. Frames use the same conventions as the TDRL/TDRB
//! formats — little-endian fixed-width integers, LEB128 varints, a `u32`
//! length prefix, and a CRC-32 trailer over everything after the magic —
//! so one set of framing helpers (`replay::stream`, `jbc::wire`)
//! serves all three formats. The format is specified normatively in
//! `docs/FORMATS.md` (§ "TDRC control frames"), with a worked example
//! pinned byte-for-byte by `formats_md_control_frame_bytes_are_pinned`
//! below.
//!
//! Scores travel as the 8 raw bytes of their IEEE-754 bit pattern, so a
//! decoded verdict is **bit-identical** to the one the service produced —
//! the control plane can never perturb a fleet report.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};

use jbc::ReferenceId;
use replay::codec::{wire, CodecError};
use replay::stream::{read_full, read_length_prefix, StreamError};

use crate::obs::{HistogramSnapshot, MetricsSnapshot};
use crate::verdict::{AuditVerdict, DetectorStats, FleetSummary, ScoreHistogram, EDGES};

/// Magic bytes opening every control frame's payload.
pub const CONTROL_MAGIC: [u8; 4] = *b"TDRC";

/// Current control-plane version.
pub const CONTROL_VERSION: u16 = 1;

/// Cap on a single control frame's declared length (bounded lookahead,
/// like the TDRL frame bound): generous, because a `SubmitBatch` frame
/// embeds a whole TDRB batch.
pub const DEFAULT_MAX_CONTROL_FRAME: usize = 256 << 20;

/// Control-plane protocol failure (transport- or frame-level; batch
/// *content* failures travel in-band as [`ControlFrame::Error`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlError {
    /// Input ended inside a frame (or its length prefix).
    Truncated,
    /// The payload does not open with `"TDRC"`.
    BadMagic,
    /// Newer or unknown control-plane version.
    UnsupportedVersion(u16),
    /// Nonzero flags in a version-1 frame.
    UnsupportedFlags(u16),
    /// The CRC-32 trailer does not match the payload.
    BadChecksum {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
    /// The kind byte names no known frame.
    UnknownKind(u8),
    /// A frame declared a length above the configured bound.
    FrameTooLarge {
        /// The declared frame length.
        len: usize,
        /// The configured maximum.
        max: usize,
    },
    /// A varint or length inside the body failed to decode.
    Body(CodecError),
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// A boolean byte is neither `00` nor `01`.
    BadBool(u8),
    /// Bytes remained in the payload after the body.
    TrailingBytes(usize),
    /// A syntactically valid frame arrived where the protocol does not
    /// allow it (e.g. a response frame sent as a request).
    UnexpectedFrame(&'static str),
    /// The peer hung up cleanly at a frame boundary but *inside* an
    /// exchange — e.g. a daemon closing after verdicts were requested but
    /// before the terminating `Summary`/`Error` arrived. (EOF between
    /// exchanges is not an error; EOF inside a frame is
    /// [`Truncated`](Self::Truncated).)
    Disconnected,
    /// The peer idled past a configured read deadline. Produced only by
    /// endpoints running with a read timeout on the transport (see
    /// `net::DaemonOptions::idle_timeout`); never by decoding.
    IdleTimeout,
    /// The daemon refused the *connection* itself: it answered the accept
    /// with a [`ControlFrame::Busy`] frame scoped to
    /// [`BusyScope::Connections`] and closed (see
    /// `net::DaemonOptions::max_conns`). Raised by [`Client`] when a
    /// connection-scoped `Busy` arrives in place of any response.
    Busy {
        /// Connections active when the daemon shed this one.
        active: u64,
        /// The daemon's configured connection cap.
        limit: u64,
    },
    /// The daemon refused a *submission* in-band with a
    /// [`ControlFrame::Busy`] frame: this connection exceeded a tenant
    /// quota (see `service::TenantQuota`). The connection itself
    /// survives — the client may submit again within quota.
    QuotaExceeded {
        /// Which budget the submission exceeded.
        scope: BusyScope,
        /// The offending measured value (declared sessions, or batches
        /// already admitted on this connection).
        active: u64,
        /// The configured quota.
        limit: u64,
    },
    /// A `Busy` frame carried a scope byte naming no known
    /// [`BusyScope`].
    BadScope(u8),
    /// A `ReferenceAck` frame carried a status byte naming no known
    /// [`AckStatus`].
    BadAckStatus(u8),
    /// A `SubmitBatch` named a reference id the daemon's registry does
    /// not hold. Raised by [`Client::submit`] when the daemon
    /// answers with an [`AckStatus::Unknown`] ack; the connection
    /// survives — register the reference with
    /// [`Client::put_reference`] and resubmit.
    UnknownReference(ReferenceId),
    /// The daemon answered `Unknown` for the same reference *again* after
    /// a successful re-put: another tenant's puts are evicting it between
    /// our `PutReference` and our resubmission (registry thrash under a
    /// tight `--reference-budget`). Raised by
    /// [`Client::submit_batch_reput`] after its bounded retry is
    /// exhausted; retrying further would livelock, so the caller must
    /// back off or the operator must raise the budget.
    ReferenceThrash(ReferenceId),
    /// The transport failed.
    Io(io::ErrorKind, String),
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::Truncated => write!(f, "control frame truncated"),
            ControlError::BadMagic => write!(f, "bad magic (not a TDRC frame)"),
            ControlError::UnsupportedVersion(v) => {
                write!(f, "unsupported control-plane version {v}")
            }
            ControlError::UnsupportedFlags(x) => {
                write!(f, "unsupported control-frame flags {x:#06x}")
            }
            ControlError::BadChecksum { stored, computed } => write!(
                f,
                "control frame checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            ControlError::UnknownKind(k) => write!(f, "unknown control-frame kind {k:#04x}"),
            ControlError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "control frame of {len} bytes exceeds the {max}-byte bound"
                )
            }
            ControlError::Body(e) => write!(f, "control-frame body failed to decode: {e}"),
            ControlError::BadUtf8 => write!(f, "control-frame string is not valid UTF-8"),
            ControlError::BadBool(b) => {
                write!(f, "control-frame boolean must be 00 or 01, got {b:#04x}")
            }
            ControlError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes inside control frame")
            }
            ControlError::UnexpectedFrame(kind) => {
                write!(f, "unexpected {kind} frame for this endpoint")
            }
            ControlError::Disconnected => {
                write!(f, "peer disconnected mid-exchange")
            }
            ControlError::IdleTimeout => {
                write!(f, "peer idled past the configured read deadline")
            }
            ControlError::Busy { active, limit } => write!(
                f,
                "daemon is at its connection cap ({active} active, limit {limit})"
            ),
            ControlError::QuotaExceeded {
                scope,
                active,
                limit,
            } => write!(
                f,
                "tenant quota exceeded ({}: {active} against a limit of {limit})",
                scope.name()
            ),
            ControlError::BadScope(b) => {
                write!(f, "busy-frame scope byte {b:#04x} names no known scope")
            }
            ControlError::BadAckStatus(b) => {
                write!(
                    f,
                    "reference-ack status byte {b:#04x} names no known status"
                )
            }
            ControlError::UnknownReference(id) => {
                write!(f, "reference {id} is not registered with the daemon")
            }
            ControlError::ReferenceThrash(id) => {
                write!(
                    f,
                    "reference {id} was evicted again immediately after a \
                     successful re-put (registry budget thrash)"
                )
            }
            ControlError::Io(kind, msg) => write!(f, "transport failed ({kind:?}): {msg}"),
        }
    }
}

impl std::error::Error for ControlError {}

impl From<CodecError> for ControlError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => ControlError::Truncated,
            other => ControlError::Body(other),
        }
    }
}

impl ControlError {
    pub(crate) fn from_io(e: io::Error) -> Self {
        ControlError::Io(e.kind(), e.to_string())
    }

    fn from_stream(e: StreamError) -> Self {
        match e {
            StreamError::Io(kind, msg) => ControlError::Io(kind, msg),
            StreamError::Codec(CodecError::Truncated) => ControlError::Truncated,
            StreamError::Codec(other) => ControlError::Body(other),
            StreamError::FrameTooLarge { len, max } => ControlError::FrameTooLarge { len, max },
        }
    }

    /// The per-variant tally counter name this error increments in a
    /// service's metrics (`control_err_*`; see `docs/ARCHITECTURE.md`,
    /// "Observability").
    pub fn metric_name(&self) -> &'static str {
        match self {
            ControlError::Truncated => "control_err_truncated",
            ControlError::BadMagic => "control_err_bad_magic",
            ControlError::UnsupportedVersion(_) => "control_err_unsupported_version",
            ControlError::UnsupportedFlags(_) => "control_err_unsupported_flags",
            ControlError::BadChecksum { .. } => "control_err_bad_checksum",
            ControlError::UnknownKind(_) => "control_err_unknown_kind",
            ControlError::FrameTooLarge { .. } => "control_err_frame_too_large",
            ControlError::Body(_) => "control_err_body",
            ControlError::BadUtf8 => "control_err_bad_utf8",
            ControlError::BadBool(_) => "control_err_bad_bool",
            ControlError::TrailingBytes(_) => "control_err_trailing_bytes",
            ControlError::UnexpectedFrame(_) => "control_err_unexpected_frame",
            ControlError::Disconnected => "control_err_disconnected",
            ControlError::IdleTimeout => "control_err_idle_timeout",
            ControlError::Busy { .. } => "control_err_busy",
            ControlError::QuotaExceeded { .. } => "control_err_quota_exceeded",
            ControlError::BadScope(_) => "control_err_bad_scope",
            ControlError::BadAckStatus(_) => "control_err_bad_ack_status",
            ControlError::UnknownReference(_) => "control_err_unknown_reference",
            ControlError::ReferenceThrash(_) => "control_err_reference_thrash",
            ControlError::Io(..) => "control_err_io",
        }
    }
}

/// What a [`ControlFrame::Busy`] refusal is scoped to: which budget the
/// peer ran into. Encoded as one byte on the wire; an unknown byte is
/// rejected as [`ControlError::BadScope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyScope {
    /// The daemon's connection cap (`net::DaemonOptions::max_conns`):
    /// the connection itself was refused at accept time and will be
    /// closed after this frame.
    Connections,
    /// The per-connection batch budget
    /// (`service::TenantQuota::max_batches`): this submission was
    /// refused, the connection survives.
    QueuedBatches,
    /// The per-batch session budget
    /// (`service::TenantQuota::max_sessions`): the submitted batch
    /// declared more sessions than one submission may carry; the
    /// connection survives.
    InFlightSessions,
}

impl BusyScope {
    /// The scope's wire byte.
    pub fn wire_byte(self) -> u8 {
        match self {
            BusyScope::Connections => 0x00,
            BusyScope::QueuedBatches => 0x01,
            BusyScope::InFlightSessions => 0x02,
        }
    }

    /// Decode a wire byte; unknown bytes are [`ControlError::BadScope`].
    pub fn from_wire_byte(b: u8) -> Result<Self, ControlError> {
        match b {
            0x00 => Ok(BusyScope::Connections),
            0x01 => Ok(BusyScope::QueuedBatches),
            0x02 => Ok(BusyScope::InFlightSessions),
            other => Err(ControlError::BadScope(other)),
        }
    }

    /// Human-readable scope name (for error messages and logs).
    pub fn name(self) -> &'static str {
        match self {
            BusyScope::Connections => "connections",
            BusyScope::QueuedBatches => "queued batches",
            BusyScope::InFlightSessions => "in-flight sessions",
        }
    }
}

/// Frame kind bytes (one per [`ControlFrame`] variant).
mod kind {
    pub const SUBMIT_BATCH: u8 = 0x01;
    pub const VERDICT: u8 = 0x02;
    pub const SUMMARY: u8 = 0x03;
    pub const ERROR: u8 = 0x04;
    pub const SHUTDOWN: u8 = 0x05;
    pub const SHUTDOWN_ACK: u8 = 0x06;
    pub const STATS_REQUEST: u8 = 0x07;
    pub const STATS: u8 = 0x08;
    pub const BUSY: u8 = 0x09;
    pub const PUT_REFERENCE: u8 = 0x0a;
    pub const REFERENCE_ACK: u8 = 0x0b;
    pub const PUT_BATTERY: u8 = 0x0c;
    pub const BATTERY_ACK: u8 = 0x0d;
}

/// What a [`ControlFrame::ReferenceAck`] reports about a registry
/// operation. Encoded as one byte on the wire (an unknown byte is
/// rejected as [`ControlError::BadAckStatus`]); a `Rejected` status
/// additionally carries the registry's typed error rendered as a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AckStatus {
    /// The container decoded, the program verified, and the reference was
    /// admitted to the registry.
    Loaded,
    /// The reference was already resident; its recency was refreshed and
    /// the container bytes were not re-verified (the id is
    /// content-derived, so an equal id *is* an equal program).
    AlreadyResident,
    /// The container or the program it carries was refused (CRC mismatch,
    /// digest mismatch, malformed body, or `jbc::verify` failure). The
    /// string is the typed error's display form; the registry is
    /// unchanged and the connection survives.
    Rejected(String),
    /// A `SubmitBatch` named a reference the registry does not hold
    /// (only daemons emit this, answering a submission — never a
    /// `PutReference`).
    Unknown,
}

impl AckStatus {
    /// The status's wire byte.
    pub fn wire_byte(&self) -> u8 {
        match self {
            AckStatus::Loaded => 0x00,
            AckStatus::AlreadyResident => 0x01,
            AckStatus::Rejected(_) => 0x02,
            AckStatus::Unknown => 0x03,
        }
    }

    /// Human-readable status name (for logs and error messages).
    pub fn name(&self) -> &'static str {
        match self {
            AckStatus::Loaded => "loaded",
            AckStatus::AlreadyResident => "already resident",
            AckStatus::Rejected(_) => "rejected",
            AckStatus::Unknown => "unknown reference",
        }
    }
}

/// One control-plane message.
///
/// `SubmitBatch` and `Shutdown` flow client → daemon; the rest flow
/// daemon → client. Every variant encodes to one length-prefixed,
/// CRC-guarded frame ([`encode`](Self::encode)) and round-trips
/// bit-identically ([`decode_payload`](Self::decode_payload)).
#[derive(Debug, Clone, PartialEq)]
pub enum ControlFrame {
    /// Client request: audit this TDRB batch. `batch_id` is an opaque
    /// client-chosen correlation id echoed in every response frame.
    SubmitBatch {
        /// Client-chosen correlation id.
        batch_id: u64,
        /// A complete TDRB batch, verbatim.
        tdrb: Vec<u8>,
        /// Which registered reference program to audit the batch
        /// against. `None` — the only form version-1 frames could
        /// express, encoded identically — means the daemon's default
        /// reference, so every pinned v1 byte stream still decodes to
        /// the same meaning. `Some(id)` appends the 32-byte id after the
        /// TDRB (§5 of `docs/FORMATS.md`, "SubmitBatch v2"); an id the
        /// registry does not hold is answered in-band with an
        /// [`AckStatus::Unknown`] ack.
        reference: Option<ReferenceId>,
    },
    /// Daemon response: one session's verdict. Emitted in submission
    /// order (`index` is the zero-based position within the batch).
    Verdict {
        /// Correlation id of the originating request.
        batch_id: u64,
        /// Zero-based submission index within the batch.
        index: u64,
        /// The session's audit outcome, bit-exact.
        verdict: AuditVerdict,
    },
    /// Daemon response terminating a successful batch.
    Summary {
        /// Correlation id of the originating request.
        batch_id: u64,
        /// Workers that served the batch.
        workers: u64,
        /// Peak resident sessions during streamed ingest.
        peak_resident: u64,
        /// The deterministic fleet-wide aggregation.
        summary: FleetSummary,
    },
    /// Daemon response terminating a failed batch (the embedded TDRB was
    /// malformed); the daemon itself stays up.
    Error {
        /// Correlation id of the originating request.
        batch_id: u64,
        /// Human-readable failure description.
        message: String,
    },
    /// Client request: stop serving after acknowledging.
    Shutdown,
    /// Daemon response to [`Shutdown`](Self::Shutdown).
    ShutdownAck,
    /// Client request: report the service's current metrics.
    StatsRequest,
    /// Daemon response to [`StatsRequest`](Self::StatsRequest): a
    /// point-in-time [`MetricsSnapshot`]. The body encoding is ordered by
    /// metric name (the snapshot's `BTreeMap`s), so equal snapshots
    /// serialize bit-identically; float values travel as IEEE-754 bits.
    Stats {
        /// The service's metrics at the moment the request was served.
        snapshot: MetricsSnapshot,
    },
    /// Daemon refusal (admission control, `docs/FORMATS.md` §5.6). Two
    /// uses: connection-scoped (`scope = Connections`, `batch_id = 0`) —
    /// sent in place of any service at accept time, after which the
    /// daemon closes; and submission-scoped (the other scopes, `batch_id`
    /// echoing the refused `SubmitBatch`) — sent in-band, after which the
    /// connection keeps serving. Rejected submissions consume no quota.
    Busy {
        /// Correlation id of the refused request (0 for connection-scoped
        /// refusals, which precede any request).
        batch_id: u64,
        /// Which budget the peer ran into.
        scope: BusyScope,
        /// The measured value that hit the budget (active connections,
        /// admitted batches, or declared sessions).
        active: u64,
        /// The configured budget.
        limit: u64,
    },
    /// Client request: register a reference program. The body carries a
    /// complete TDRP container (`docs/FORMATS.md` §7), verbatim; the
    /// daemon decodes, verifies, and admits it to the registry, then
    /// answers with a [`ReferenceAck`](Self::ReferenceAck). A tampered
    /// or malformed container is refused *in-band*
    /// ([`AckStatus::Rejected`]) — the connection and the daemon keep
    /// serving.
    PutReference {
        /// Client-chosen correlation id (echoed in the ack).
        put_id: u64,
        /// A complete TDRP container, verbatim.
        tdrp: Vec<u8>,
    },
    /// Daemon response to a [`PutReference`](Self::PutReference) — or to
    /// a [`SubmitBatch`](Self::SubmitBatch) naming an unregistered
    /// reference (then `put_id` echoes the *batch* id and `status` is
    /// [`AckStatus::Unknown`]).
    ReferenceAck {
        /// Correlation id of the originating request.
        put_id: u64,
        /// The reference the ack concerns. For a successful load this is
        /// the content-derived id the daemon computed — the client can
        /// compare it against its own digest (self-certifying); for a
        /// rejection it is all zeroes.
        reference: ReferenceId,
        /// What the registry did.
        status: AckStatus,
        /// Canonical program bytes resident in the registry after the
        /// operation (the LRU budget's measured quantity).
        resident_bytes: u64,
    },
    /// Client request: install a trained detector battery, replacing the
    /// daemon's current one in a single atomic swap. The body carries the
    /// battery's canonical JSON form (`DetectorBattery::to_json`); the
    /// daemon parses it, requires it to be trained, installs it, and
    /// answers with a [`BatteryAck`](Self::BatteryAck). This is how a
    /// coordinator keeps battery generations consistent fleet-wide:
    /// retrain once, publish the same JSON to every backend
    /// (`docs/FORMATS.md` §8.4).
    PutBattery {
        /// Client-chosen correlation id (echoed in the ack).
        put_id: u64,
        /// The battery in its canonical JSON form, UTF-8.
        json: String,
    },
    /// Daemon response to a [`PutBattery`](Self::PutBattery).
    BatteryAck {
        /// Correlation id of the originating request.
        put_id: u64,
        /// The daemon's battery generation counter after the operation
        /// (0 on a rejection). Monotonic per daemon; a fleet is
        /// consistent when every backend reports its own counter moved.
        generation: u64,
        /// [`AckStatus::Loaded`] on success, [`AckStatus::Rejected`]
        /// (with the reason) when the JSON fails to parse, the battery is
        /// untrained, or the daemon scores TDR-only. The other statuses
        /// are never produced for batteries.
        status: AckStatus,
    },
}

impl ControlFrame {
    /// The variant's wire kind byte.
    fn kind_byte(&self) -> u8 {
        match self {
            ControlFrame::SubmitBatch { .. } => kind::SUBMIT_BATCH,
            ControlFrame::Verdict { .. } => kind::VERDICT,
            ControlFrame::Summary { .. } => kind::SUMMARY,
            ControlFrame::Error { .. } => kind::ERROR,
            ControlFrame::Shutdown => kind::SHUTDOWN,
            ControlFrame::ShutdownAck => kind::SHUTDOWN_ACK,
            ControlFrame::StatsRequest => kind::STATS_REQUEST,
            ControlFrame::Stats { .. } => kind::STATS,
            ControlFrame::Busy { .. } => kind::BUSY,
            ControlFrame::PutReference { .. } => kind::PUT_REFERENCE,
            ControlFrame::ReferenceAck { .. } => kind::REFERENCE_ACK,
            ControlFrame::PutBattery { .. } => kind::PUT_BATTERY,
            ControlFrame::BatteryAck { .. } => kind::BATTERY_ACK,
        }
    }

    /// The variant's display name (for protocol-violation errors).
    pub fn kind_name(&self) -> &'static str {
        match self {
            ControlFrame::SubmitBatch { .. } => "SubmitBatch",
            ControlFrame::Verdict { .. } => "Verdict",
            ControlFrame::Summary { .. } => "Summary",
            ControlFrame::Error { .. } => "Error",
            ControlFrame::Shutdown => "Shutdown",
            ControlFrame::ShutdownAck => "ShutdownAck",
            ControlFrame::StatsRequest => "StatsRequest",
            ControlFrame::Stats { .. } => "Stats",
            ControlFrame::Busy { .. } => "Busy",
            ControlFrame::PutReference { .. } => "PutReference",
            ControlFrame::ReferenceAck { .. } => "ReferenceAck",
            ControlFrame::PutBattery { .. } => "PutBattery",
            ControlFrame::BatteryAck { .. } => "BatteryAck",
        }
    }

    /// Encode to one complete frame: `u32` length prefix, then the
    /// payload (magic, version, flags, kind, body, CRC-32 trailer).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&CONTROL_MAGIC);
        payload.extend_from_slice(&CONTROL_VERSION.to_le_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes()); // flags
        payload.push(self.kind_byte());
        self.put_body(&mut payload);
        let crc = wire::crc32(&payload[CONTROL_MAGIC.len()..]);
        payload.extend_from_slice(&crc.to_le_bytes());
        let mut out = Vec::with_capacity(payload.len() + 4);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn put_body(&self, out: &mut Vec<u8>) {
        match self {
            ControlFrame::SubmitBatch {
                batch_id,
                tdrb,
                reference,
            } => {
                wire::put_varint(out, *batch_id);
                wire::put_varint(out, tdrb.len() as u64);
                out.extend_from_slice(tdrb);
                // v2 extension: the reference id, when present, is the
                // final 32 bytes of the body. A `None` frame is
                // byte-identical to a version-1 frame.
                if let Some(id) = reference {
                    out.extend_from_slice(&id.0);
                }
            }
            ControlFrame::Verdict {
                batch_id,
                index,
                verdict,
            } => {
                wire::put_varint(out, *batch_id);
                wire::put_varint(out, *index);
                put_verdict(out, verdict);
            }
            ControlFrame::Summary {
                batch_id,
                workers,
                peak_resident,
                summary,
            } => {
                wire::put_varint(out, *batch_id);
                wire::put_varint(out, *workers);
                wire::put_varint(out, *peak_resident);
                put_summary(out, summary);
            }
            ControlFrame::Error { batch_id, message } => {
                wire::put_varint(out, *batch_id);
                put_string(out, message);
            }
            ControlFrame::Shutdown | ControlFrame::ShutdownAck | ControlFrame::StatsRequest => {}
            ControlFrame::Stats { snapshot } => put_snapshot(out, snapshot),
            ControlFrame::Busy {
                batch_id,
                scope,
                active,
                limit,
            } => {
                wire::put_varint(out, *batch_id);
                out.push(scope.wire_byte());
                wire::put_varint(out, *active);
                wire::put_varint(out, *limit);
            }
            ControlFrame::PutReference { put_id, tdrp } => {
                wire::put_varint(out, *put_id);
                wire::put_varint(out, tdrp.len() as u64);
                out.extend_from_slice(tdrp);
            }
            ControlFrame::ReferenceAck {
                put_id,
                reference,
                status,
                resident_bytes,
            } => {
                wire::put_varint(out, *put_id);
                out.extend_from_slice(&reference.0);
                out.push(status.wire_byte());
                wire::put_varint(out, *resident_bytes);
                if let AckStatus::Rejected(message) = status {
                    put_string(out, message);
                }
            }
            ControlFrame::PutBattery { put_id, json } => {
                wire::put_varint(out, *put_id);
                put_string(out, json);
            }
            ControlFrame::BatteryAck {
                put_id,
                generation,
                status,
            } => {
                wire::put_varint(out, *put_id);
                wire::put_varint(out, *generation);
                out.push(status.wire_byte());
                if let AckStatus::Rejected(message) = status {
                    put_string(out, message);
                }
            }
        }
    }

    /// Decode one frame payload (everything after the length prefix).
    ///
    /// Checks run in the normative order: magic, checksum, version,
    /// flags, kind, body — and the body must consume the payload exactly.
    pub fn decode_payload(payload: &[u8]) -> Result<Self, ControlError> {
        // Smallest legal frame: magic + version + flags + kind + trailer.
        if payload.len() < CONTROL_MAGIC.len() + 2 + 2 + 1 + 4 {
            return Err(ControlError::Truncated);
        }
        if payload[..CONTROL_MAGIC.len()] != CONTROL_MAGIC {
            return Err(ControlError::BadMagic);
        }
        let trailer_at = payload.len() - 4;
        let stored = u32::from_le_bytes(payload[trailer_at..].try_into().expect("4 bytes"));
        let computed = wire::crc32(&payload[CONTROL_MAGIC.len()..trailer_at]);
        if stored != computed {
            return Err(ControlError::BadChecksum { stored, computed });
        }
        let version = u16::from_le_bytes(payload[4..6].try_into().expect("2 bytes"));
        if version != CONTROL_VERSION {
            return Err(ControlError::UnsupportedVersion(version));
        }
        let flags = u16::from_le_bytes(payload[6..8].try_into().expect("2 bytes"));
        if flags != 0 {
            return Err(ControlError::UnsupportedFlags(flags));
        }
        let frame_kind = payload[8];
        let body = &payload[9..trailer_at];
        let mut pos = 0usize;
        let frame = match frame_kind {
            kind::SUBMIT_BATCH => {
                let batch_id = wire::read_varint(body, &mut pos)?;
                let len = wire::read_varint(body, &mut pos)? as usize;
                let end = pos.checked_add(len).ok_or(ControlError::Truncated)?;
                let tdrb = body.get(pos..end).ok_or(ControlError::Truncated)?.to_vec();
                pos = end;
                // v2 extension: an empty remainder is a version-1 frame
                // (default reference); otherwise exactly 32 id bytes
                // must follow (fewer is truncation, more is trailing
                // garbage via the exact-consumption check below).
                let reference = if pos == body.len() {
                    None
                } else {
                    let end = pos.checked_add(32).ok_or(ControlError::Truncated)?;
                    let bytes = body.get(pos..end).ok_or(ControlError::Truncated)?;
                    pos = end;
                    Some(ReferenceId(bytes.try_into().expect("32 bytes")))
                };
                ControlFrame::SubmitBatch {
                    batch_id,
                    tdrb,
                    reference,
                }
            }
            kind::VERDICT => {
                let batch_id = wire::read_varint(body, &mut pos)?;
                let index = wire::read_varint(body, &mut pos)?;
                let verdict = read_verdict(body, &mut pos)?;
                ControlFrame::Verdict {
                    batch_id,
                    index,
                    verdict,
                }
            }
            kind::SUMMARY => {
                let batch_id = wire::read_varint(body, &mut pos)?;
                let workers = wire::read_varint(body, &mut pos)?;
                let peak_resident = wire::read_varint(body, &mut pos)?;
                let summary = read_summary(body, &mut pos)?;
                ControlFrame::Summary {
                    batch_id,
                    workers,
                    peak_resident,
                    summary,
                }
            }
            kind::ERROR => {
                let batch_id = wire::read_varint(body, &mut pos)?;
                let message = read_string(body, &mut pos)?;
                ControlFrame::Error { batch_id, message }
            }
            kind::SHUTDOWN => ControlFrame::Shutdown,
            kind::SHUTDOWN_ACK => ControlFrame::ShutdownAck,
            kind::STATS_REQUEST => ControlFrame::StatsRequest,
            kind::STATS => ControlFrame::Stats {
                snapshot: read_snapshot(body, &mut pos)?,
            },
            kind::BUSY => {
                let batch_id = wire::read_varint(body, &mut pos)?;
                let scope_byte = *body.get(pos).ok_or(ControlError::Truncated)?;
                pos += 1;
                let scope = BusyScope::from_wire_byte(scope_byte)?;
                let active = wire::read_varint(body, &mut pos)?;
                let limit = wire::read_varint(body, &mut pos)?;
                ControlFrame::Busy {
                    batch_id,
                    scope,
                    active,
                    limit,
                }
            }
            kind::PUT_REFERENCE => {
                let put_id = wire::read_varint(body, &mut pos)?;
                let len = wire::read_varint(body, &mut pos)? as usize;
                let end = pos.checked_add(len).ok_or(ControlError::Truncated)?;
                let tdrp = body.get(pos..end).ok_or(ControlError::Truncated)?.to_vec();
                pos = end;
                ControlFrame::PutReference { put_id, tdrp }
            }
            kind::REFERENCE_ACK => {
                let put_id = wire::read_varint(body, &mut pos)?;
                let end = pos.checked_add(32).ok_or(ControlError::Truncated)?;
                let id_bytes = body.get(pos..end).ok_or(ControlError::Truncated)?;
                let reference = ReferenceId(id_bytes.try_into().expect("32 bytes"));
                pos = end;
                let status_byte = *body.get(pos).ok_or(ControlError::Truncated)?;
                pos += 1;
                let resident_bytes = wire::read_varint(body, &mut pos)?;
                let status = match status_byte {
                    0x00 => AckStatus::Loaded,
                    0x01 => AckStatus::AlreadyResident,
                    0x02 => AckStatus::Rejected(read_string(body, &mut pos)?),
                    0x03 => AckStatus::Unknown,
                    other => return Err(ControlError::BadAckStatus(other)),
                };
                ControlFrame::ReferenceAck {
                    put_id,
                    reference,
                    status,
                    resident_bytes,
                }
            }
            kind::PUT_BATTERY => {
                let put_id = wire::read_varint(body, &mut pos)?;
                let json = read_string(body, &mut pos)?;
                ControlFrame::PutBattery { put_id, json }
            }
            kind::BATTERY_ACK => {
                let put_id = wire::read_varint(body, &mut pos)?;
                let generation = wire::read_varint(body, &mut pos)?;
                let status_byte = *body.get(pos).ok_or(ControlError::Truncated)?;
                pos += 1;
                let status = match status_byte {
                    0x00 => AckStatus::Loaded,
                    0x01 => AckStatus::AlreadyResident,
                    0x02 => AckStatus::Rejected(read_string(body, &mut pos)?),
                    0x03 => AckStatus::Unknown,
                    other => return Err(ControlError::BadAckStatus(other)),
                };
                ControlFrame::BatteryAck {
                    put_id,
                    generation,
                    status,
                }
            }
            other => return Err(ControlError::UnknownKind(other)),
        };
        if pos != body.len() {
            return Err(ControlError::TrailingBytes(body.len() - pos));
        }
        Ok(frame)
    }

    /// Write one encoded frame to `writer`.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<(), ControlError> {
        writer
            .write_all(&self.encode())
            .map_err(ControlError::from_io)
    }

    /// Read one frame from `reader` with the default length bound.
    ///
    /// `Ok(None)` is clean end-of-stream at a frame boundary; EOF inside
    /// a frame is [`ControlError::Truncated`].
    pub fn read_from<R: Read>(reader: &mut R) -> Result<Option<Self>, ControlError> {
        Self::read_from_bounded(reader, DEFAULT_MAX_CONTROL_FRAME)
    }

    /// [`read_from`](Self::read_from) with an explicit frame-length bound.
    ///
    /// Memory grows with bytes actually *received*, never with the
    /// declared length alone: a peer that announces a near-bound frame
    /// and then stalls (or disconnects) pins at most one read chunk, not
    /// the whole declared allocation — on a network-facing daemon the
    /// declared length is attacker-controlled, so the up-front
    /// `vec![0; len]` a naive reader would do is an asymmetric
    /// memory-exhaustion primitive.
    pub fn read_from_bounded<R: Read>(
        reader: &mut R,
        max_len: usize,
    ) -> Result<Option<Self>, ControlError> {
        let len = match read_length_prefix(reader).map_err(ControlError::from_stream)? {
            None => return Ok(None),
            Some(len) => len,
        };
        if len > max_len {
            return Err(ControlError::FrameTooLarge { len, max: max_len });
        }
        let mut payload = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        while payload.len() < len {
            let want = (len - payload.len()).min(chunk.len());
            let got = read_full(reader, &mut chunk[..want]).map_err(ControlError::from_stream)?;
            if got == 0 {
                return Err(ControlError::Truncated);
            }
            payload.extend_from_slice(&chunk[..got]);
        }
        Self::decode_payload(&payload).map(Some)
    }
}

// ---------------------------------------------------------------------------
// Body field encodings
// ---------------------------------------------------------------------------

fn put_string(out: &mut Vec<u8>, s: &str) {
    wire::put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_string(buf: &[u8], pos: &mut usize) -> Result<String, ControlError> {
    let len = wire::read_varint(buf, pos)? as usize;
    let end = pos.checked_add(len).ok_or(ControlError::Truncated)?;
    let bytes = buf.get(*pos..end).ok_or(ControlError::Truncated)?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).map_err(|_| ControlError::BadUtf8)
}

fn put_verdict(out: &mut Vec<u8>, v: &AuditVerdict) {
    wire::put_varint(out, v.session_id);
    wire::put_f64(out, v.score);
    out.push(v.flagged as u8);
    wire::put_varint(out, v.tx_packets as u64);
    wire::put_varint(out, v.replayed_cycles);
    wire::put_varint(out, v.detector_scores.len() as u64);
    for (name, &score) in &v.detector_scores {
        put_string(out, name);
        wire::put_f64(out, score);
    }
    match &v.error {
        None => out.push(0),
        Some(msg) => {
            out.push(1);
            put_string(out, msg);
        }
    }
}

fn read_bool(buf: &[u8], pos: &mut usize) -> Result<bool, ControlError> {
    let byte = *buf.get(*pos).ok_or(ControlError::Truncated)?;
    *pos += 1;
    match byte {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(ControlError::BadBool(other)),
    }
}

fn read_verdict(buf: &[u8], pos: &mut usize) -> Result<AuditVerdict, ControlError> {
    let session_id = wire::read_varint(buf, pos)?;
    let score = wire::read_f64(buf, pos)?;
    let flagged = read_bool(buf, pos)?;
    let tx_packets = wire::read_varint(buf, pos)? as usize;
    let replayed_cycles = wire::read_varint(buf, pos)?;
    let n_scores = wire::read_varint(buf, pos)? as usize;
    let mut detector_scores = BTreeMap::new();
    for _ in 0..n_scores {
        let name = read_string(buf, pos)?;
        let score = wire::read_f64(buf, pos)?;
        detector_scores.insert(name, score);
    }
    let error = if read_bool(buf, pos)? {
        Some(read_string(buf, pos)?)
    } else {
        None
    };
    Ok(AuditVerdict {
        session_id,
        score,
        flagged,
        tx_packets,
        replayed_cycles,
        detector_scores,
        error,
    })
}

fn put_summary(out: &mut Vec<u8>, s: &FleetSummary) {
    wire::put_varint(out, s.sessions);
    wire::put_varint(out, s.flagged.len() as u64);
    for &id in &s.flagged {
        wire::put_varint(out, id);
    }
    wire::put_varint(out, s.errors);
    for &count in &s.histogram.counts {
        wire::put_varint(out, count);
    }
    wire::put_f64(out, s.max_score);
    wire::put_f64(out, s.mean_score);
    wire::put_varint(out, s.replayed_cycles);
    wire::put_varint(out, s.detector_stats.len() as u64);
    for (name, stats) in &s.detector_stats {
        put_string(out, name);
        wire::put_f64(out, stats.mean);
        wire::put_f64(out, stats.max);
    }
}

fn read_summary(buf: &[u8], pos: &mut usize) -> Result<FleetSummary, ControlError> {
    let sessions = wire::read_varint(buf, pos)?;
    let n_flagged = wire::read_varint(buf, pos)? as usize;
    // Bounded by what the body can possibly hold (each id is ≥ 1 byte),
    // not by the equally attacker-controlled `sessions` count — a crafted
    // frame must not drive the allocation below.
    if n_flagged as u64 > sessions || n_flagged > buf.len().saturating_sub(*pos) {
        return Err(ControlError::Body(CodecError::LengthOverflow));
    }
    let mut flagged = Vec::with_capacity(n_flagged);
    for _ in 0..n_flagged {
        flagged.push(wire::read_varint(buf, pos)?);
    }
    let errors = wire::read_varint(buf, pos)?;
    let mut histogram = ScoreHistogram::default();
    for slot in 0..EDGES.len() {
        histogram.counts[slot] = wire::read_varint(buf, pos)?;
    }
    let max_score = wire::read_f64(buf, pos)?;
    let mean_score = wire::read_f64(buf, pos)?;
    let replayed_cycles = wire::read_varint(buf, pos)?;
    let n_stats = wire::read_varint(buf, pos)? as usize;
    let mut detector_stats = BTreeMap::new();
    for _ in 0..n_stats {
        let name = read_string(buf, pos)?;
        let mean = wire::read_f64(buf, pos)?;
        let max = wire::read_f64(buf, pos)?;
        detector_stats.insert(name, DetectorStats { mean, max });
    }
    Ok(FleetSummary {
        sessions,
        flagged,
        errors,
        histogram,
        max_score,
        mean_score,
        replayed_cycles,
        detector_stats,
    })
}

/// Body-length bound for an attacker-declared element count: each element
/// occupies at least `min_bytes` on the wire, so a count the remaining
/// body cannot possibly hold is a length overflow, rejected before any
/// allocation (same discipline as `read_summary`'s flagged bound).
fn bounded_count(
    buf: &[u8],
    pos: usize,
    declared: u64,
    min_bytes: usize,
) -> Result<usize, ControlError> {
    // A zero minimum would make the bound vacuous: `remaining / 1` after
    // the release-only `.max(1)` below admits up to one element per
    // remaining byte, silently weakening the guard by a factor of the
    // caller's true element size. Every call site must pass the real
    // per-element wire minimum (≥ 1 byte); a zero is a caller bug, caught
    // loudly in debug builds while release builds keep the (weakened but
    // still finite) divide-by-one bound instead of panicking mid-decode.
    debug_assert!(
        min_bytes > 0,
        "bounded_count requires the true per-element minimum (≥ 1 byte), got 0"
    );
    let remaining = buf.len().saturating_sub(pos);
    if declared > (remaining / min_bytes.max(1)) as u64 {
        return Err(ControlError::Body(CodecError::LengthOverflow));
    }
    Ok(declared as usize)
}

fn put_snapshot(out: &mut Vec<u8>, s: &MetricsSnapshot) {
    wire::put_varint(out, s.counters.len() as u64);
    for (name, &v) in &s.counters {
        put_string(out, name);
        wire::put_varint(out, v);
    }
    wire::put_varint(out, s.gauges.len() as u64);
    for (name, &v) in &s.gauges {
        put_string(out, name);
        wire::put_varint(out, v);
    }
    wire::put_varint(out, s.float_gauges.len() as u64);
    for (name, &v) in &s.float_gauges {
        put_string(out, name);
        wire::put_f64(out, v);
    }
    wire::put_varint(out, s.histograms.len() as u64);
    for (name, h) in &s.histograms {
        put_string(out, name);
        wire::put_varint(out, h.edges.len() as u64);
        for &edge in &h.edges {
            wire::put_f64(out, edge);
        }
        for &count in &h.counts {
            wire::put_varint(out, count);
        }
        wire::put_varint(out, h.total);
        wire::put_f64(out, h.sum);
    }
}

fn read_snapshot(buf: &[u8], pos: &mut usize) -> Result<MetricsSnapshot, ControlError> {
    // A name is ≥ 1 byte (its length varint) and every value ≥ 1 byte, so
    // each entry of every family is ≥ 2 wire bytes.
    let n = wire::read_varint(buf, pos)?;
    let n_counters = bounded_count(buf, *pos, n, 2)?;
    let mut counters = BTreeMap::new();
    for _ in 0..n_counters {
        let name = read_string(buf, pos)?;
        counters.insert(name, wire::read_varint(buf, pos)?);
    }
    let n = wire::read_varint(buf, pos)?;
    let n_gauges = bounded_count(buf, *pos, n, 2)?;
    let mut gauges = BTreeMap::new();
    for _ in 0..n_gauges {
        let name = read_string(buf, pos)?;
        gauges.insert(name, wire::read_varint(buf, pos)?);
    }
    let n = wire::read_varint(buf, pos)?;
    let n_float = bounded_count(buf, *pos, n, 9)?; // name ≥ 1 + f64 = 8
    let mut float_gauges = BTreeMap::new();
    for _ in 0..n_float {
        let name = read_string(buf, pos)?;
        float_gauges.insert(name, wire::read_f64(buf, pos)?);
    }
    let n = wire::read_varint(buf, pos)?;
    let n_hist = bounded_count(buf, *pos, n, 2)?;
    let mut histograms = BTreeMap::new();
    for _ in 0..n_hist {
        let name = read_string(buf, pos)?;
        let n = wire::read_varint(buf, pos)?;
        let n_edges = bounded_count(buf, *pos, n, 8)?; // each edge is an f64
        let mut edges = Vec::with_capacity(n_edges);
        for _ in 0..n_edges {
            edges.push(wire::read_f64(buf, pos)?);
        }
        let mut counts = Vec::with_capacity(n_edges + 1);
        for _ in 0..=n_edges {
            counts.push(wire::read_varint(buf, pos)?);
        }
        let total = wire::read_varint(buf, pos)?;
        let sum = wire::read_f64(buf, pos)?;
        histograms.insert(
            name,
            HistogramSnapshot {
                edges,
                counts,
                total,
                sum,
            },
        );
    }
    Ok(MetricsSnapshot {
        counters,
        gauges,
        float_gauges,
        histograms,
    })
}

// ---------------------------------------------------------------------------
// Typed client
// ---------------------------------------------------------------------------

/// The terminating `Summary` frame of a successful batch, as data.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSummary {
    /// Workers that served the batch (echoed from the daemon's report).
    pub workers: u64,
    /// Peak resident sessions during the daemon's streamed ingest.
    pub peak_resident: u64,
    /// The deterministic fleet-wide aggregation.
    pub summary: FleetSummary,
}

/// What one [`Client::put_reference`] exchange produced: the daemon's
/// `ReferenceAck`, as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutOutcome {
    /// The content-derived reference id the daemon computed (all zeroes
    /// on a rejection). Compare against a locally computed
    /// [`jbc::container::reference_id`] to confirm the daemon holds the
    /// program you meant.
    pub reference: ReferenceId,
    /// What the registry did (loaded / already resident / rejected).
    pub status: AckStatus,
    /// Canonical program bytes resident in the registry afterwards.
    pub resident_bytes: u64,
}

/// What one [`Client::put_battery`] exchange produced: the daemon's
/// `BatteryAck`, as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatteryOutcome {
    /// The daemon's battery generation counter after the install (0 on a
    /// rejection). Monotonic per daemon.
    pub generation: u64,
    /// [`AckStatus::Loaded`] on success, [`AckStatus::Rejected`] with the
    /// reason otherwise.
    pub status: AckStatus,
}

/// Everything one `SubmitBatch` exchange produced.
///
/// `verdicts` holds the per-session verdicts in submission order (the
/// daemon emits them in-order; [`Client`] verifies the indexes are
/// contiguous). `result` is the terminating frame: a [`BatchSummary`] on
/// success, or the daemon's in-band `Error` message when the embedded
/// TDRB was malformed — in which case verdicts already streamed for
/// earlier sessions are still present and valid.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// The correlation id this exchange used.
    pub batch_id: u64,
    /// Per-session verdicts, in submission order.
    pub verdicts: Vec<AuditVerdict>,
    /// Terminating frame: summary, or the in-band error message.
    pub result: Result<BatchSummary, String>,
}

/// A typed TDRC client over any `Read + Write` transport.
///
/// Wraps the request/response choreography of §5 of `docs/FORMATS.md`:
/// [`submit`](Self::submit) writes one `SubmitBatch` frame
/// and reads `Verdict*` then `Summary`/`Error`, verifying the batch-id
/// echo and the contiguous submission-index order as it goes;
/// [`shutdown`](Self::shutdown) performs the `Shutdown`/`ShutdownAck`
/// handshake. The same client drives a `TcpStream` (the `tdrd` binary and
/// the TCP tests), an in-memory [`duplex`](crate::service::duplex) end,
/// or anything else that moves bytes.
///
/// Decoded verdicts are **bit-identical** to the ones the service
/// produced — the wire encoding round-trips IEEE-754 bits, pinned by the
/// integration suite against in-process submission.
#[derive(Debug)]
pub struct Client<T: Read + Write> {
    transport: T,
}

impl<T: Read + Write> Client<T> {
    /// Wrap a connected transport.
    pub fn new(transport: T) -> Self {
        Client { transport }
    }

    /// Submit one TDRB batch against the daemon's default reference and
    /// block until its terminating frame ([`submit`](Self::submit) with
    /// no reference and no verdict callback).
    pub fn submit_batch(
        &mut self,
        batch_id: u64,
        tdrb: Vec<u8>,
    ) -> Result<BatchOutcome, ControlError> {
        self.submit(batch_id, tdrb, None, |_, _| {})
    }

    /// [`submit`](Self::submit) against a registered reference, with the
    /// bounded Unknown-reference recovery built in: on an
    /// [`AckStatus::Unknown`] answer the client re-puts `tdrp` (the
    /// container whose content-derived id is `reference`) and resubmits
    /// **once**. Content addressing makes the re-put always safe; the cap
    /// exists because under a tight `--reference-budget` a competing
    /// tenant's puts can evict the reference *between* our re-put and our
    /// resubmission, and an unbounded put→resubmit loop then livelocks.
    /// A second `Unknown` is surfaced as
    /// [`ControlError::ReferenceThrash`] — the caller backs off, or the
    /// operator raises the budget.
    pub fn submit_batch_reput(
        &mut self,
        batch_id: u64,
        tdrb: Vec<u8>,
        reference: ReferenceId,
        tdrp: &[u8],
    ) -> Result<BatchOutcome, ControlError> {
        match self.submit(batch_id, tdrb.clone(), Some(reference), |_, _| {}) {
            Err(ControlError::UnknownReference(id)) if id == reference => {
                let put = self.put_reference(batch_id, tdrp.to_vec())?;
                match put.status {
                    AckStatus::Loaded | AckStatus::AlreadyResident
                        if put.reference == reference => {}
                    // The daemon refused (or renamed) a container this
                    // very connection previously loaded under this id —
                    // content addressing forbids that.
                    _ => {
                        return Err(ControlError::UnexpectedFrame(
                            "ReferenceAck (re-put refused)",
                        ))
                    }
                }
                match self.submit(batch_id, tdrb, Some(reference), |_, _| {}) {
                    Err(ControlError::UnknownReference(id)) if id == reference => {
                        Err(ControlError::ReferenceThrash(reference))
                    }
                    other => other,
                }
            }
            other => other,
        }
    }

    /// Submit one TDRB batch and block until its terminating frame.
    ///
    /// `reference` names a program registered with
    /// [`put_reference`](Self::put_reference): the frame then goes out as
    /// SubmitBatch v2, and if the registry does not hold that id the
    /// daemon answers in-band and this returns
    /// [`ControlError::UnknownReference`] — register it and resubmit; the
    /// connection survives. `None` audits against the daemon's default
    /// reference (SubmitBatch v1). `on_verdict` sees each verdict frame as
    /// it arrives, before it is collected — the hook for live progress.
    ///
    /// Protocol-level failures (corrupt frames, a wrong batch id, frames
    /// out of order, the daemon hanging up mid-exchange) are `Err`;
    /// batch-content failures are in-band and land in
    /// [`BatchOutcome::result`].
    pub fn submit(
        &mut self,
        batch_id: u64,
        tdrb: Vec<u8>,
        reference: Option<ReferenceId>,
        mut on_verdict: impl FnMut(u64, &AuditVerdict),
    ) -> Result<BatchOutcome, ControlError> {
        let mut verdicts: Vec<AuditVerdict> = Vec::new();
        let mut frame = self.request(&ControlFrame::SubmitBatch {
            batch_id,
            tdrb,
            reference,
        })?;
        loop {
            match frame {
                ControlFrame::Verdict {
                    batch_id: got,
                    index,
                    verdict,
                } => {
                    if got != batch_id {
                        return Err(ControlError::UnexpectedFrame("Verdict (foreign batch id)"));
                    }
                    if index != verdicts.len() as u64 {
                        return Err(ControlError::UnexpectedFrame("Verdict (out of order)"));
                    }
                    on_verdict(index, &verdict);
                    verdicts.push(verdict);
                }
                ControlFrame::Summary {
                    batch_id: got,
                    workers,
                    peak_resident,
                    summary,
                } => {
                    if got != batch_id {
                        return Err(ControlError::UnexpectedFrame("Summary (foreign batch id)"));
                    }
                    return Ok(BatchOutcome {
                        batch_id,
                        verdicts,
                        result: Ok(BatchSummary {
                            workers,
                            peak_resident,
                            summary,
                        }),
                    });
                }
                ControlFrame::Error {
                    batch_id: got,
                    message,
                } => {
                    if got != batch_id {
                        return Err(ControlError::UnexpectedFrame("Error (foreign batch id)"));
                    }
                    return Ok(BatchOutcome {
                        batch_id,
                        verdicts,
                        result: Err(message),
                    });
                }
                ControlFrame::Busy {
                    batch_id: got,
                    scope,
                    active,
                    limit,
                } => {
                    if got != batch_id {
                        return Err(ControlError::UnexpectedFrame("Busy (foreign batch id)"));
                    }
                    return Err(ControlError::QuotaExceeded {
                        scope,
                        active,
                        limit,
                    });
                }
                ControlFrame::ReferenceAck {
                    put_id: got,
                    reference,
                    status: AckStatus::Unknown,
                    ..
                } => {
                    // The daemon refused the submission in-band: the
                    // named reference is not registered. `put_id` echoes
                    // the batch id here (§5, "ReferenceAck").
                    if got != batch_id {
                        return Err(ControlError::UnexpectedFrame(
                            "ReferenceAck (foreign batch id)",
                        ));
                    }
                    return Err(ControlError::UnknownReference(reference));
                }
                other => return Err(ControlError::UnexpectedFrame(other.kind_name())),
            }
            frame = self.read_frame()?;
        }
    }

    /// Write one request frame, flush it, and read the first response
    /// frame back.
    fn request(&mut self, frame: &ControlFrame) -> Result<ControlFrame, ControlError> {
        frame.write_to(&mut self.transport)?;
        self.transport.flush().map_err(ControlError::from_io)?;
        self.read_frame()
    }

    /// Read one response frame. EOF is [`ControlError::Disconnected`], and
    /// a connection-scoped `Busy` is [`ControlError::Busy`]: the daemon
    /// shed this connection at accept time, and that parting frame can
    /// arrive in answer to any request.
    fn read_frame(&mut self) -> Result<ControlFrame, ControlError> {
        match ControlFrame::read_from(&mut self.transport)? {
            None => Err(ControlError::Disconnected),
            Some(ControlFrame::Busy {
                scope: BusyScope::Connections,
                active,
                limit,
                ..
            }) => Err(ControlError::Busy { active, limit }),
            Some(frame) => Ok(frame),
        }
    }

    /// Register a reference program: one `PutReference` frame carrying a
    /// complete TDRP container out, exactly one `ReferenceAck` back.
    ///
    /// A refused container ([`AckStatus::Rejected`] — CRC/digest
    /// mismatch, malformed body, verify failure) is *not* a protocol
    /// error: it lands in [`PutOutcome::status`] and the connection keeps
    /// serving, mirroring how batch-content failures travel in-band.
    pub fn put_reference(
        &mut self,
        put_id: u64,
        tdrp: Vec<u8>,
    ) -> Result<PutOutcome, ControlError> {
        match self.request(&ControlFrame::PutReference { put_id, tdrp })? {
            ControlFrame::ReferenceAck {
                put_id: got,
                reference,
                status,
                resident_bytes,
            } => {
                if got != put_id {
                    return Err(ControlError::UnexpectedFrame(
                        "ReferenceAck (foreign put id)",
                    ));
                }
                Ok(PutOutcome {
                    reference,
                    status,
                    resident_bytes,
                })
            }
            other => Err(ControlError::UnexpectedFrame(other.kind_name())),
        }
    }

    /// Install a trained detector battery: one `PutBattery` frame
    /// carrying the battery's canonical JSON out, exactly one
    /// `BatteryAck` back.
    ///
    /// A refused battery ([`AckStatus::Rejected`] — unparseable JSON,
    /// untrained, or a TDR-only daemon) is *not* a protocol error: it
    /// lands in [`BatteryOutcome::status`] and the connection keeps
    /// serving. Against a coordinator the install fans out to every
    /// backend, so one call publishes one new generation fleet-wide.
    pub fn put_battery(
        &mut self,
        put_id: u64,
        json: String,
    ) -> Result<BatteryOutcome, ControlError> {
        match self.request(&ControlFrame::PutBattery { put_id, json })? {
            ControlFrame::BatteryAck {
                put_id: got,
                generation,
                status,
            } => {
                if got != put_id {
                    return Err(ControlError::UnexpectedFrame("BatteryAck (foreign put id)"));
                }
                Ok(BatteryOutcome { generation, status })
            }
            other => Err(ControlError::UnexpectedFrame(other.kind_name())),
        }
    }

    /// Fetch the daemon's current metrics: one `StatsRequest` frame out,
    /// exactly one `Stats` frame back. Callable between batch exchanges
    /// on the same connection; the snapshot covers the whole *service*
    /// (every connection's traffic), not just this client's.
    pub fn stats(&mut self) -> Result<MetricsSnapshot, ControlError> {
        match self.request(&ControlFrame::StatsRequest)? {
            ControlFrame::Stats { snapshot } => Ok(snapshot),
            other => Err(ControlError::UnexpectedFrame(other.kind_name())),
        }
    }

    /// Perform the `Shutdown`/`ShutdownAck` handshake and consume the
    /// client (over TCP this ends the *connection*; the daemon keeps
    /// serving other connections — `docs/FORMATS.md` §5.4).
    pub fn shutdown(mut self) -> Result<T, ControlError> {
        match self.request(&ControlFrame::Shutdown)? {
            ControlFrame::ShutdownAck => Ok(self.transport),
            other => Err(ControlError::UnexpectedFrame(other.kind_name())),
        }
    }

    /// A shared view of the transport.
    pub fn get_ref(&self) -> &T {
        &self.transport
    }

    /// Unwrap the transport without the shutdown handshake.
    pub fn into_inner(self) -> T {
        self.transport
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_verdict() -> AuditVerdict {
        AuditVerdict {
            session_id: 7,
            score: 0.5,
            flagged: true,
            tx_packets: 3,
            replayed_cycles: 1000,
            detector_scores: BTreeMap::new(),
            error: None,
        }
    }

    fn sample_summary() -> FleetSummary {
        let verdicts = vec![
            sample_verdict(),
            AuditVerdict {
                session_id: 9,
                score: 0.001,
                flagged: false,
                tx_packets: 5,
                replayed_cycles: 2_500,
                detector_scores: [
                    ("Sanity".to_string(), 0.001),
                    ("Shape test".to_string(), -1.25),
                ]
                .into_iter()
                .collect(),
                error: None,
            },
            AuditVerdict {
                session_id: 10,
                score: 1.0,
                flagged: true,
                tx_packets: 0,
                replayed_cycles: 0,
                detector_scores: BTreeMap::new(),
                error: Some("replay failed".to_string()),
            },
        ];
        FleetSummary::from_verdicts(&verdicts)
    }

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: [
                ("sessions_audited".to_string(), 12u64),
                ("conn_accepted".to_string(), 3),
                ("bytes_in".to_string(), u64::MAX),
            ]
            .into_iter()
            .collect(),
            gauges: [("conn_active".to_string(), 1u64)].into_iter().collect(),
            float_gauges: [
                ("uptime_seconds".to_string(), 12.5f64),
                ("retrain_drift_mean".to_string(), -0.0),
            ]
            .into_iter()
            .collect(),
            histograms: [(
                "verdict_latency_us".to_string(),
                HistogramSnapshot {
                    edges: vec![50.0, 100.0, 250.0],
                    counts: vec![1, 2, 3, 4],
                    total: 10,
                    sum: 1234.5,
                },
            )]
            .into_iter()
            .collect(),
        }
    }

    fn every_frame() -> Vec<ControlFrame> {
        vec![
            ControlFrame::SubmitBatch {
                batch_id: 42,
                tdrb: vec![0x54, 0x44, 0x52, 0x42, 1, 0, 0, 0, 0],
                reference: None,
            },
            ControlFrame::SubmitBatch {
                batch_id: 43,
                tdrb: vec![0x54, 0x44, 0x52, 0x42, 1, 0, 0, 0, 0],
                reference: Some(sample_reference_id()),
            },
            ControlFrame::Verdict {
                batch_id: 1,
                index: 0,
                verdict: sample_verdict(),
            },
            ControlFrame::Verdict {
                batch_id: 1,
                index: 2,
                verdict: AuditVerdict {
                    detector_scores: [
                        ("Sanity".to_string(), f64::MIN_POSITIVE),
                        ("CCE test".to_string(), -0.0),
                    ]
                    .into_iter()
                    .collect(),
                    error: Some("the replay diverged".to_string()),
                    ..sample_verdict()
                },
            },
            ControlFrame::Summary {
                batch_id: 1,
                workers: 4,
                peak_resident: 8,
                summary: sample_summary(),
            },
            ControlFrame::Error {
                batch_id: 9,
                message: "session 3 failed to decode: checksum mismatch".to_string(),
            },
            ControlFrame::Shutdown,
            ControlFrame::ShutdownAck,
            ControlFrame::StatsRequest,
            ControlFrame::Stats {
                snapshot: sample_snapshot(),
            },
            ControlFrame::Stats {
                snapshot: MetricsSnapshot::default(),
            },
            ControlFrame::Busy {
                batch_id: 0,
                scope: BusyScope::Connections,
                active: 4,
                limit: 4,
            },
            ControlFrame::Busy {
                batch_id: 300,
                scope: BusyScope::QueuedBatches,
                active: 8,
                limit: 8,
            },
            ControlFrame::Busy {
                batch_id: u64::MAX,
                scope: BusyScope::InFlightSessions,
                active: u64::MAX,
                limit: 1,
            },
            ControlFrame::PutReference {
                put_id: 17,
                tdrp: vec![0x54, 0x44, 0x52, 0x50, 0x01, 0x00, 0x00, 0x00],
            },
            ControlFrame::ReferenceAck {
                put_id: 17,
                reference: sample_reference_id(),
                status: AckStatus::Loaded,
                resident_bytes: 4096,
            },
            ControlFrame::ReferenceAck {
                put_id: 18,
                reference: sample_reference_id(),
                status: AckStatus::AlreadyResident,
                resident_bytes: u64::MAX,
            },
            ControlFrame::ReferenceAck {
                put_id: 19,
                reference: ReferenceId([0; 32]),
                status: AckStatus::Rejected("container checksum mismatch".to_string()),
                resident_bytes: 0,
            },
            ControlFrame::ReferenceAck {
                put_id: 20,
                reference: sample_reference_id(),
                status: AckStatus::Unknown,
                resident_bytes: 128,
            },
            ControlFrame::PutBattery {
                put_id: 21,
                json: "{\"version\":1,\"detectors\":[]}".to_string(),
            },
            ControlFrame::BatteryAck {
                put_id: 21,
                generation: 3,
                status: AckStatus::Loaded,
            },
            ControlFrame::BatteryAck {
                put_id: 22,
                generation: 0,
                status: AckStatus::Rejected("battery is untrained".to_string()),
            },
        ]
    }

    fn sample_reference_id() -> ReferenceId {
        let mut id = [0u8; 32];
        for (k, b) in id.iter_mut().enumerate() {
            *b = (k as u8).wrapping_mul(7).wrapping_add(3);
        }
        ReferenceId(id)
    }

    #[test]
    fn every_frame_roundtrips_bit_identically() {
        for frame in every_frame() {
            let bytes = frame.encode();
            let back = ControlFrame::read_from(&mut &bytes[..])
                .expect("decodes")
                .expect("one frame");
            assert_eq!(back, frame);
            // Scores must survive bit-for-bit, not just PartialEq (which
            // would conflate 0.0 and -0.0).
            if let (
                ControlFrame::Verdict { verdict: a, .. },
                ControlFrame::Verdict { verdict: b, .. },
            ) = (&frame, &back)
            {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                for (name, score) in &a.detector_scores {
                    assert_eq!(score.to_bits(), b.detector_scores[name].to_bits());
                }
            }
            // Re-encoding the decoded frame is byte-identical.
            assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn frame_stream_concatenates() {
        let frames = every_frame();
        let mut bytes = Vec::new();
        for frame in &frames {
            bytes.extend_from_slice(&frame.encode());
        }
        let mut src = &bytes[..];
        let mut decoded = Vec::new();
        while let Some(frame) = ControlFrame::read_from(&mut src).expect("decodes") {
            decoded.push(frame);
        }
        assert_eq!(decoded, frames);
    }

    #[test]
    fn truncation_rejected_at_every_cut() {
        let bytes = ControlFrame::Summary {
            batch_id: 1,
            workers: 2,
            peak_resident: 4,
            summary: sample_summary(),
        }
        .encode();
        for cut in [1, 3, 5, 9, bytes.len() / 2, bytes.len() - 1] {
            let got = ControlFrame::read_from(&mut &bytes[..cut]);
            assert_eq!(got, Err(ControlError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn corruption_rejected_by_crc() {
        let clean = ControlFrame::Verdict {
            batch_id: 3,
            index: 1,
            verdict: sample_verdict(),
        }
        .encode();
        // Flip every byte after the length prefix and magic in turn; each
        // flip must surface as *some* typed error, and a flip in the body
        // or trailer must never decode silently.
        for at in 8..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[at] ^= 0x40;
            let got = ControlFrame::read_from(&mut &corrupt[..]);
            assert!(got.is_err(), "flip at {at} decoded: {got:?}");
        }
    }

    #[test]
    fn unknown_version_and_flags_rejected() {
        let clean = ControlFrame::Shutdown.encode();
        // Version and flags live at payload offsets 4/6 = frame offsets
        // 8/10. The CRC covers them, so re-seal the trailer after
        // patching to prove the *version* check fires, not the checksum.
        for (at, expect) in [
            (8usize, ControlError::UnsupportedVersion(9)),
            (10, ControlError::UnsupportedFlags(9)),
        ] {
            let mut patched = clean.clone();
            patched[at] = 9;
            let n = patched.len();
            let crc = wire::crc32(&patched[8..n - 4]);
            patched[n - 4..].copy_from_slice(&crc.to_le_bytes());
            let got = ControlFrame::read_from(&mut &patched[..]);
            assert_eq!(got, Err(expect), "patch at {at}");
        }
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut bytes = ControlFrame::Shutdown.encode();
        bytes[12] = 0x7f; // kind byte (4-byte prefix + magic + ver + flags)
        let n = bytes.len();
        let crc = wire::crc32(&bytes[8..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            ControlFrame::read_from(&mut &bytes[..]),
            Err(ControlError::UnknownKind(0x7f))
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = ControlFrame::Shutdown.encode();
        bytes[5] = b'X';
        assert_eq!(
            ControlFrame::read_from(&mut &bytes[..]),
            Err(ControlError::BadMagic)
        );
    }

    #[test]
    fn trailing_bytes_inside_payload_rejected() {
        // A Shutdown body must be empty; splice a byte in and re-seal.
        let mut bytes = ControlFrame::Shutdown.encode();
        let n = bytes.len();
        bytes.insert(n - 4, 0xaa); // before the trailer
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        let m = bytes.len();
        let crc = wire::crc32(&bytes[8..m - 4]);
        bytes[m - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            ControlFrame::read_from(&mut &bytes[..]),
            Err(ControlError::TrailingBytes(1))
        );
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            ControlFrame::read_from_bounded(&mut &bytes[..], 1 << 16),
            Err(ControlError::FrameTooLarge {
                len: u32::MAX as usize,
                max: 1 << 16
            })
        );
    }

    #[test]
    fn declared_but_unsent_length_is_truncated() {
        // A peer may declare a near-bound frame and never send it; the
        // reader must classify that as truncation once the stream ends,
        // holding only the bytes that actually arrived (the incremental
        // fill in `read_from_bounded` — never `vec![0; declared]`).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(200u32 << 20).to_le_bytes()); // within the 256 MiB bound
        bytes.extend_from_slice(&[0u8; 32]); // but almost nothing follows
        assert_eq!(
            ControlFrame::read_from(&mut &bytes[..]),
            Err(ControlError::Truncated)
        );
    }

    #[test]
    fn summary_flagged_count_is_bounded() {
        // A summary claiming more flagged sessions than the sessions
        // count — or than the body could possibly hold — must be rejected
        // as length overflow, not trusted with an allocation. The second
        // case matters on its own: `sessions` is attacker-controlled too,
        // so the body length is the only trustworthy bound.
        for sessions in [2u64, u64::MAX >> 2] {
            let mut payload = Vec::new();
            payload.extend_from_slice(&CONTROL_MAGIC);
            payload.extend_from_slice(&CONTROL_VERSION.to_le_bytes());
            payload.extend_from_slice(&0u16.to_le_bytes());
            payload.push(kind::SUMMARY);
            wire::put_varint(&mut payload, 1); // batch_id
            wire::put_varint(&mut payload, 1); // workers
            wire::put_varint(&mut payload, 1); // peak
            wire::put_varint(&mut payload, sessions);
            wire::put_varint(&mut payload, u64::MAX >> 2); // preposterous flagged count
            let crc = wire::crc32(&payload[4..]);
            payload.extend_from_slice(&crc.to_le_bytes());
            assert_eq!(
                ControlFrame::decode_payload(&payload),
                Err(ControlError::Body(CodecError::LengthOverflow)),
                "sessions = {sessions}"
            );
        }
    }

    #[test]
    fn bounded_count_accepts_exactly_full_body() {
        // The boundary case: a declared count of exactly
        // `remaining / min_bytes` is the largest claim the body could
        // possibly satisfy and must be admitted; one more must not.
        let buf = [0u8; 24];
        for (pos, min_bytes) in [(0usize, 2usize), (0, 8), (4, 2), (4, 9), (23, 2)] {
            let remaining = buf.len() - pos;
            let fit = (remaining / min_bytes) as u64;
            assert_eq!(
                bounded_count(&buf, pos, fit, min_bytes),
                Ok(fit as usize),
                "pos {pos}, min {min_bytes}"
            );
            assert_eq!(
                bounded_count(&buf, pos, fit + 1, min_bytes),
                Err(ControlError::Body(CodecError::LengthOverflow)),
                "pos {pos}, min {min_bytes}"
            );
        }
    }

    #[test]
    fn bounded_count_rejects_any_claim_against_a_short_body() {
        // With fewer than `min_bytes` remaining, no nonzero count fits —
        // including when `pos` already sits at or past the end (the
        // saturating subtraction leaves zero remaining, not a wrap).
        let buf = [0u8; 8];
        for pos in [1usize, 7, 8, 9] {
            assert_eq!(
                bounded_count(&buf, pos, 1, 8),
                Err(ControlError::Body(CodecError::LengthOverflow)),
                "pos {pos}"
            );
            // A zero count is always satisfiable, even by an empty body.
            assert_eq!(bounded_count(&buf, pos, 0, 8), Ok(0), "pos {pos}");
        }
    }

    /// Pins the worked example in `docs/FORMATS.md` (§ "TDRC control
    /// frames") byte for byte. If this fails, the spec and the code have
    /// diverged — fix whichever is wrong, never both silently.
    #[test]
    fn formats_md_control_frame_bytes_are_pinned() {
        let frame = ControlFrame::Verdict {
            batch_id: 1,
            index: 0,
            verdict: AuditVerdict {
                session_id: 7,
                score: 0.5,
                flagged: true,
                tx_packets: 3,
                replayed_cycles: 1000,
                detector_scores: BTreeMap::new(),
                error: None,
            },
        };
        let expected: Vec<u8> = vec![
            0x1e, 0x00, 0x00, 0x00, // length prefix = 30
            0x54, 0x44, 0x52, 0x43, // magic "TDRC"
            0x01, 0x00, // version = 1
            0x00, 0x00, // flags = 0
            0x02, // kind = Verdict
            0x01, // batch_id = 1
            0x00, // index = 0
            0x07, // session_id = 7
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, // score = 0.5
            0x01, // flagged = true
            0x03, // tx_packets = 3
            0xe8, 0x07, // replayed_cycles = 1000
            0x00, // detector-score count = 0
            0x00, // no error
            0x07, 0x5c, 0xf1, 0xe1, // CRC-32 of payload[4..26]
        ];
        assert_eq!(frame.encode(), expected);
        assert_eq!(
            ControlFrame::decode_payload(&expected[4..]).expect("decodes"),
            frame
        );
    }

    /// Pins the §5.5 worked example (`docs/FORMATS.md`) byte for byte:
    /// a `StatsRequest` and a one-counter/one-gauge `Stats` frame. As
    /// with the Verdict pin above, a failure means code and spec
    /// diverged.
    #[test]
    fn formats_md_stats_frame_bytes_are_pinned() {
        let request = ControlFrame::StatsRequest;
        let expected_request: Vec<u8> = vec![
            0x0d, 0x00, 0x00, 0x00, // length prefix = 13
            0x54, 0x44, 0x52, 0x43, // magic "TDRC"
            0x01, 0x00, // version = 1
            0x00, 0x00, // flags = 0
            0x07, // kind = StatsRequest (empty body)
            0x0e, 0x4b, 0x26, 0x65, // CRC-32 of payload[4..9]
        ];
        assert_eq!(request.encode(), expected_request);

        let stats = ControlFrame::Stats {
            snapshot: MetricsSnapshot {
                counters: [("sessions_audited".to_string(), 12u64)]
                    .into_iter()
                    .collect(),
                gauges: [("conn_active".to_string(), 1u64)].into_iter().collect(),
                float_gauges: BTreeMap::new(),
                histograms: BTreeMap::new(),
            },
        };
        let mut expected_stats: Vec<u8> = vec![
            0x30, 0x00, 0x00, 0x00, // length prefix = 48
            0x54, 0x44, 0x52, 0x43, // magic "TDRC"
            0x01, 0x00, // version = 1
            0x00, 0x00, // flags = 0
            0x08, // kind = Stats
            0x01, // counter count = 1
            0x10, // name length = 16
        ];
        expected_stats.extend_from_slice(b"sessions_audited");
        expected_stats.extend_from_slice(&[
            0x0c, // value = 12
            0x01, // gauge count = 1
            0x0b, // name length = 11
        ]);
        expected_stats.extend_from_slice(b"conn_active");
        expected_stats.extend_from_slice(&[
            0x01, // value = 1
            0x00, // float-gauge count = 0
            0x00, // histogram count = 0
        ]);
        let crc = wire::crc32(&expected_stats[8..]);
        expected_stats.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(stats.encode(), expected_stats);
        assert_eq!(
            ControlFrame::decode_payload(&expected_stats[4..]).expect("decodes"),
            stats
        );
    }

    /// Pins the §5.6 worked example (`docs/FORMATS.md`) byte for byte: a
    /// connection-scoped `Busy` frame as the daemon sheds an accept at a
    /// cap of 4. As with the pins above, a failure means code and spec
    /// diverged — fix whichever is wrong, never both silently.
    #[test]
    fn formats_md_busy_frame_bytes_are_pinned() {
        let frame = ControlFrame::Busy {
            batch_id: 0,
            scope: BusyScope::Connections,
            active: 4,
            limit: 4,
        };
        let mut expected: Vec<u8> = vec![
            0x11, 0x00, 0x00, 0x00, // length prefix = 17
            0x54, 0x44, 0x52, 0x43, // magic "TDRC"
            0x01, 0x00, // version = 1
            0x00, 0x00, // flags = 0
            0x09, // kind = Busy
            0x00, // batch_id = 0 (connection-scoped)
            0x00, // scope = Connections
            0x04, // active = 4
            0x04, // limit = 4
        ];
        let crc = wire::crc32(&expected[8..]);
        expected.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(frame.encode(), expected);
        assert_eq!(
            ControlFrame::decode_payload(&expected[4..]).expect("decodes"),
            frame
        );
    }

    #[test]
    fn busy_corruption_and_truncation_rejected() {
        let clean = ControlFrame::Busy {
            batch_id: 77,
            scope: BusyScope::InFlightSessions,
            active: 9,
            limit: 8,
        }
        .encode();
        for at in 8..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[at] ^= 0x40;
            let got = ControlFrame::read_from(&mut &corrupt[..]);
            assert!(got.is_err(), "flip at {at} decoded: {got:?}");
        }
        for cut in 1..clean.len() {
            let got = ControlFrame::read_from(&mut &clean[..cut]);
            assert_eq!(got, Err(ControlError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn busy_unknown_scope_rejected_as_bad_scope() {
        // A CRC-valid Busy frame with a scope byte from the future must
        // fail on the *scope*, not on the checksum or as trailing bytes.
        let mut payload = Vec::new();
        payload.extend_from_slice(&CONTROL_MAGIC);
        payload.extend_from_slice(&CONTROL_VERSION.to_le_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes());
        payload.push(kind::BUSY);
        wire::put_varint(&mut payload, 5); // batch_id
        payload.push(0x7f); // unknown scope
        wire::put_varint(&mut payload, 1); // active
        wire::put_varint(&mut payload, 1); // limit
        let crc = wire::crc32(&payload[4..]);
        payload.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            ControlFrame::decode_payload(&payload),
            Err(ControlError::BadScope(0x7f))
        );
    }

    #[test]
    fn busy_trailing_bytes_rejected() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&CONTROL_MAGIC);
        payload.extend_from_slice(&CONTROL_VERSION.to_le_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes());
        payload.push(kind::BUSY);
        wire::put_varint(&mut payload, 0);
        payload.push(0x00); // Connections
        wire::put_varint(&mut payload, 2);
        wire::put_varint(&mut payload, 2);
        payload.push(0xaa); // smuggled byte
        let crc = wire::crc32(&payload[4..]);
        payload.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            ControlFrame::decode_payload(&payload),
            Err(ControlError::TrailingBytes(1))
        );
    }

    #[test]
    fn client_maps_busy_frames_to_typed_errors() {
        // Submission-scoped: QuotaExceeded, echoing the batch id.
        let mut client = Client::new(Scripted::new(&[ControlFrame::Busy {
            batch_id: 6,
            scope: BusyScope::QueuedBatches,
            active: 8,
            limit: 8,
        }]));
        assert_eq!(
            client.submit_batch(6, Vec::new()),
            Err(ControlError::QuotaExceeded {
                scope: BusyScope::QueuedBatches,
                active: 8,
                limit: 8,
            })
        );
        // Submission-scoped with a foreign batch id: protocol violation.
        let mut client = Client::new(Scripted::new(&[ControlFrame::Busy {
            batch_id: 99,
            scope: BusyScope::InFlightSessions,
            active: 9,
            limit: 8,
        }]));
        assert_eq!(
            client.submit_batch(6, Vec::new()),
            Err(ControlError::UnexpectedFrame("Busy (foreign batch id)"))
        );
        // Connection-scoped: the accept-shed race surfaces as Busy from
        // every request path, regardless of the batch id (always 0).
        let shed = ControlFrame::Busy {
            batch_id: 0,
            scope: BusyScope::Connections,
            active: 4,
            limit: 4,
        };
        let expected = ControlError::Busy {
            active: 4,
            limit: 4,
        };
        let mut client = Client::new(Scripted::new(std::slice::from_ref(&shed)));
        assert_eq!(client.submit_batch(1, Vec::new()), Err(expected.clone()));
        let mut client = Client::new(Scripted::new(std::slice::from_ref(&shed)));
        assert_eq!(client.stats(), Err(expected.clone()));
        let client = Client::new(Scripted::new(std::slice::from_ref(&shed)));
        assert_eq!(client.shutdown().err(), Some(expected));
    }

    #[test]
    fn equal_snapshots_encode_bit_identically() {
        // The snapshot wire form is a function of the values alone:
        // build the same snapshot twice with different insertion orders
        // and through different construction paths — identical bytes.
        let a = ControlFrame::Stats {
            snapshot: sample_snapshot(),
        }
        .encode();
        let mut reordered = MetricsSnapshot::default();
        let sample = sample_snapshot();
        for (k, v) in sample.counters.iter().rev() {
            reordered.counters.insert(k.clone(), *v);
        }
        reordered.gauges = sample.gauges.clone();
        reordered.float_gauges = sample.float_gauges.clone();
        reordered.histograms = sample.histograms.clone();
        let b = ControlFrame::Stats {
            snapshot: reordered,
        }
        .encode();
        assert_eq!(a, b);
    }

    #[test]
    fn stats_truncation_rejected_at_every_cut() {
        let bytes = ControlFrame::Stats {
            snapshot: sample_snapshot(),
        }
        .encode();
        for cut in [1, 3, 5, 9, 13, 14, bytes.len() / 2, bytes.len() - 1] {
            let got = ControlFrame::read_from(&mut &bytes[..cut]);
            assert_eq!(got, Err(ControlError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn stats_corruption_rejected_by_crc() {
        let clean = ControlFrame::Stats {
            snapshot: sample_snapshot(),
        }
        .encode();
        for at in 8..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[at] ^= 0x40;
            let got = ControlFrame::read_from(&mut &corrupt[..]);
            assert!(got.is_err(), "flip at {at} decoded: {got:?}");
        }
    }

    /// Declared element counts in a `Stats` body are bounded by what the
    /// body could possibly hold — a crafted frame must never drive an
    /// allocation. One case per family, plus the per-histogram edges.
    #[test]
    fn stats_declared_counts_are_bounded() {
        // (families already emitted before the huge count, huge count's
        // position label)
        type Prefix<'a> = &'a dyn Fn(&mut Vec<u8>);
        let cases: [(Prefix, &str); 4] = [
            (&|_body| {}, "counters"),
            (&|body| wire::put_varint(body, 0), "gauges"),
            (
                &|body| {
                    wire::put_varint(body, 0);
                    wire::put_varint(body, 0);
                },
                "float gauges",
            ),
            (
                &|body| {
                    wire::put_varint(body, 0);
                    wire::put_varint(body, 0);
                    wire::put_varint(body, 0);
                },
                "histograms",
            ),
        ];
        for (prefix, label) in cases {
            let mut payload = Vec::new();
            payload.extend_from_slice(&CONTROL_MAGIC);
            payload.extend_from_slice(&CONTROL_VERSION.to_le_bytes());
            payload.extend_from_slice(&0u16.to_le_bytes());
            payload.push(kind::STATS);
            prefix(&mut payload);
            wire::put_varint(&mut payload, u64::MAX >> 2); // preposterous count
            let crc = wire::crc32(&payload[4..]);
            payload.extend_from_slice(&crc.to_le_bytes());
            assert_eq!(
                ControlFrame::decode_payload(&payload),
                Err(ControlError::Body(CodecError::LengthOverflow)),
                "family: {label}"
            );
        }
        // A histogram declaring more edges than the body holds.
        let mut payload = Vec::new();
        payload.extend_from_slice(&CONTROL_MAGIC);
        payload.extend_from_slice(&CONTROL_VERSION.to_le_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes());
        payload.push(kind::STATS);
        wire::put_varint(&mut payload, 0); // counters
        wire::put_varint(&mut payload, 0); // gauges
        wire::put_varint(&mut payload, 0); // float gauges
        wire::put_varint(&mut payload, 1); // one histogram
        put_string(&mut payload, "h");
        wire::put_varint(&mut payload, 1 << 30); // preposterous edge count
        let crc = wire::crc32(&payload[4..]);
        payload.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            ControlFrame::decode_payload(&payload),
            Err(ControlError::Body(CodecError::LengthOverflow)),
            "histogram edges"
        );
    }

    #[test]
    fn stats_trailing_bytes_rejected() {
        // An empty snapshot body is exactly four zero varints; a fifth
        // byte must be trailing garbage, not silently ignored.
        let mut payload = Vec::new();
        payload.extend_from_slice(&CONTROL_MAGIC);
        payload.extend_from_slice(&CONTROL_VERSION.to_le_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes());
        payload.push(kind::STATS);
        for _ in 0..4 {
            wire::put_varint(&mut payload, 0);
        }
        payload.push(0xaa);
        let crc = wire::crc32(&payload[4..]);
        payload.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            ControlFrame::decode_payload(&payload),
            Err(ControlError::TrailingBytes(1))
        );
    }

    #[test]
    fn stats_request_with_a_body_is_trailing_bytes() {
        // StatsRequest's body is empty by definition; a peer smuggling
        // payload into it is malformed even with a valid CRC.
        let mut payload = Vec::new();
        payload.extend_from_slice(&CONTROL_MAGIC);
        payload.extend_from_slice(&CONTROL_VERSION.to_le_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes());
        payload.push(kind::STATS_REQUEST);
        payload.extend_from_slice(&[1, 2, 3]);
        let crc = wire::crc32(&payload[4..]);
        payload.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            ControlFrame::decode_payload(&payload),
            Err(ControlError::TrailingBytes(3))
        );
    }

    /// A canned transport: reads from a scripted response stream, records
    /// everything the client writes.
    struct Scripted {
        responses: io::Cursor<Vec<u8>>,
        sent: Vec<u8>,
    }

    impl Scripted {
        fn new(frames: &[ControlFrame]) -> Self {
            let mut responses = Vec::new();
            for frame in frames {
                responses.extend_from_slice(&frame.encode());
            }
            Scripted {
                responses: io::Cursor::new(responses),
                sent: Vec::new(),
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.responses.read(buf)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.sent.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn client_collects_in_order_verdicts_and_summary() {
        let verdict = sample_verdict();
        let summary = sample_summary();
        let mut client = Client::new(Scripted::new(&[
            ControlFrame::Verdict {
                batch_id: 5,
                index: 0,
                verdict: verdict.clone(),
            },
            ControlFrame::Verdict {
                batch_id: 5,
                index: 1,
                verdict: verdict.clone(),
            },
            ControlFrame::Summary {
                batch_id: 5,
                workers: 2,
                peak_resident: 3,
                summary: summary.clone(),
            },
        ]));
        let mut seen = Vec::new();
        let outcome = client
            .submit(5, vec![1, 2, 3], None, |i, _| seen.push(i))
            .expect("protocol clean");
        assert_eq!(seen, vec![0, 1]);
        assert_eq!(outcome.verdicts, vec![verdict.clone(), verdict]);
        assert_eq!(
            outcome.result,
            Ok(BatchSummary {
                workers: 2,
                peak_resident: 3,
                summary
            })
        );
        // The request actually went out as one SubmitBatch frame.
        let sent = client.into_inner().sent;
        assert_eq!(
            ControlFrame::read_from(&mut &sent[..])
                .expect("decodes")
                .expect("one frame"),
            ControlFrame::SubmitBatch {
                batch_id: 5,
                tdrb: vec![1, 2, 3],
                reference: None,
            }
        );
    }

    #[test]
    fn client_surfaces_in_band_errors_with_partial_verdicts() {
        let verdict = sample_verdict();
        let mut client = Client::new(Scripted::new(&[
            ControlFrame::Verdict {
                batch_id: 9,
                index: 0,
                verdict: verdict.clone(),
            },
            ControlFrame::Error {
                batch_id: 9,
                message: "session 1 failed to decode".to_string(),
            },
        ]));
        let outcome = client.submit_batch(9, Vec::new()).expect("protocol clean");
        assert_eq!(outcome.verdicts, vec![verdict]);
        assert_eq!(
            outcome.result,
            Err("session 1 failed to decode".to_string())
        );
    }

    #[test]
    fn client_rejects_foreign_ids_out_of_order_and_disconnects() {
        // Wrong batch id.
        let mut client = Client::new(Scripted::new(&[ControlFrame::Summary {
            batch_id: 8,
            workers: 1,
            peak_resident: 1,
            summary: sample_summary(),
        }]));
        assert_eq!(
            client.submit_batch(7, Vec::new()),
            Err(ControlError::UnexpectedFrame("Summary (foreign batch id)"))
        );
        // Out-of-order verdict index.
        let mut client = Client::new(Scripted::new(&[ControlFrame::Verdict {
            batch_id: 7,
            index: 1,
            verdict: sample_verdict(),
        }]));
        assert_eq!(
            client.submit_batch(7, Vec::new()),
            Err(ControlError::UnexpectedFrame("Verdict (out of order)"))
        );
        // Daemon hangs up cleanly before the terminating frame.
        let mut client = Client::new(Scripted::new(&[]));
        assert_eq!(
            client.submit_batch(7, Vec::new()),
            Err(ControlError::Disconnected)
        );
        // A request-only frame arriving as a response.
        let mut client = Client::new(Scripted::new(&[ControlFrame::Shutdown]));
        assert_eq!(
            client.submit_batch(7, Vec::new()),
            Err(ControlError::UnexpectedFrame("Shutdown"))
        );
    }

    #[test]
    fn client_stats_roundtrip_and_error_cases() {
        // Happy path: one StatsRequest out, one Stats back.
        let snapshot = sample_snapshot();
        let mut client = Client::new(Scripted::new(&[ControlFrame::Stats {
            snapshot: snapshot.clone(),
        }]));
        assert_eq!(client.stats(), Ok(snapshot));
        let sent = client.into_inner().sent;
        assert_eq!(
            ControlFrame::read_from(&mut &sent[..])
                .expect("decodes")
                .expect("one frame"),
            ControlFrame::StatsRequest
        );
        // Daemon hangs up before answering.
        let mut client = Client::new(Scripted::new(&[]));
        assert_eq!(client.stats(), Err(ControlError::Disconnected));
        // Any other frame in place of Stats is a protocol violation.
        let mut client = Client::new(Scripted::new(&[ControlFrame::ShutdownAck]));
        assert_eq!(
            client.stats(),
            Err(ControlError::UnexpectedFrame("ShutdownAck"))
        );
    }

    #[test]
    fn submit_batch_v2_reference_id_must_be_exactly_32_bytes() {
        // A v2 remainder shorter than an id is truncation; longer is
        // trailing garbage. Both re-sealed so the CRC is not the check
        // that fires.
        let clean = ControlFrame::SubmitBatch {
            batch_id: 7,
            tdrb: vec![1, 2, 3],
            reference: Some(sample_reference_id()),
        }
        .encode();
        for drop in [1usize, 31] {
            let mut patched = clean.clone();
            patched.truncate(clean.len() - 4 - drop); // strip CRC + id tail
            let crc = wire::crc32(&patched[8..]);
            patched.extend_from_slice(&crc.to_le_bytes());
            let len = (patched.len() - 4) as u32;
            patched[..4].copy_from_slice(&len.to_le_bytes());
            assert_eq!(
                ControlFrame::read_from(&mut &patched[..]),
                Err(ControlError::Truncated),
                "dropped {drop} id bytes"
            );
        }
        let mut longer = clean.clone();
        longer.insert(clean.len() - 4, 0xaa); // a 33rd id byte
        let len = (longer.len() - 4) as u32;
        longer[..4].copy_from_slice(&len.to_le_bytes());
        let n = longer.len();
        let crc = wire::crc32(&longer[8..n - 4]);
        longer[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            ControlFrame::read_from(&mut &longer[..]),
            Err(ControlError::TrailingBytes(1))
        );
    }

    #[test]
    fn reference_ack_unknown_status_byte_rejected() {
        // A CRC-valid ack with a status byte from the future must fail on
        // the *status*, not the checksum.
        let mut payload = Vec::new();
        payload.extend_from_slice(&CONTROL_MAGIC);
        payload.extend_from_slice(&CONTROL_VERSION.to_le_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes());
        payload.push(kind::REFERENCE_ACK);
        wire::put_varint(&mut payload, 1); // put_id
        payload.extend_from_slice(&[0u8; 32]); // reference id
        payload.push(0x7f); // unknown status
        wire::put_varint(&mut payload, 0); // resident_bytes
        let crc = wire::crc32(&payload[4..]);
        payload.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            ControlFrame::decode_payload(&payload),
            Err(ControlError::BadAckStatus(0x7f))
        );
    }

    #[test]
    fn reference_frames_corruption_and_truncation_rejected() {
        for frame in [
            ControlFrame::PutReference {
                put_id: 3,
                tdrp: vec![0x54, 0x44, 0x52, 0x50, 9, 9],
            },
            ControlFrame::ReferenceAck {
                put_id: 3,
                reference: sample_reference_id(),
                status: AckStatus::Rejected("digest mismatch".to_string()),
                resident_bytes: 77,
            },
        ] {
            let clean = frame.encode();
            for at in 8..clean.len() {
                let mut corrupt = clean.clone();
                corrupt[at] ^= 0x40;
                let got = ControlFrame::read_from(&mut &corrupt[..]);
                assert!(got.is_err(), "flip at {at} decoded: {got:?}");
            }
            for cut in 1..clean.len() {
                let got = ControlFrame::read_from(&mut &clean[..cut]);
                assert_eq!(got, Err(ControlError::Truncated), "cut at {cut}");
            }
        }
    }

    #[test]
    fn client_put_reference_roundtrip_and_in_band_rejection() {
        // Happy path: one PutReference out, a Loaded ack back.
        let id = sample_reference_id();
        let mut client = Client::new(Scripted::new(&[ControlFrame::ReferenceAck {
            put_id: 4,
            reference: id,
            status: AckStatus::Loaded,
            resident_bytes: 999,
        }]));
        assert_eq!(
            client.put_reference(4, vec![1, 2, 3]),
            Ok(PutOutcome {
                reference: id,
                status: AckStatus::Loaded,
                resident_bytes: 999,
            })
        );
        let sent = client.into_inner().sent;
        assert_eq!(
            ControlFrame::read_from(&mut &sent[..])
                .expect("decodes")
                .expect("one frame"),
            ControlFrame::PutReference {
                put_id: 4,
                tdrp: vec![1, 2, 3]
            }
        );
        // A rejected container is in-band data, not a protocol error.
        let mut client = Client::new(Scripted::new(&[ControlFrame::ReferenceAck {
            put_id: 5,
            reference: ReferenceId([0; 32]),
            status: AckStatus::Rejected("container checksum mismatch".to_string()),
            resident_bytes: 0,
        }]));
        let outcome = client.put_reference(5, vec![0xff]).expect("in-band");
        assert_eq!(
            outcome.status,
            AckStatus::Rejected("container checksum mismatch".to_string())
        );
        // A foreign put id is a protocol violation.
        let mut client = Client::new(Scripted::new(&[ControlFrame::ReferenceAck {
            put_id: 99,
            reference: id,
            status: AckStatus::Loaded,
            resident_bytes: 0,
        }]));
        assert_eq!(
            client.put_reference(5, Vec::new()),
            Err(ControlError::UnexpectedFrame(
                "ReferenceAck (foreign put id)"
            ))
        );
        // Hangup before the ack.
        let mut client = Client::new(Scripted::new(&[]));
        assert_eq!(
            client.put_reference(5, Vec::new()),
            Err(ControlError::Disconnected)
        );
    }

    #[test]
    fn client_submit_batch_for_sends_v2_and_maps_unknown_reference() {
        let id = sample_reference_id();
        // An Unknown ack echoing the batch id becomes the typed error.
        let mut client = Client::new(Scripted::new(&[ControlFrame::ReferenceAck {
            put_id: 11,
            reference: id,
            status: AckStatus::Unknown,
            resident_bytes: 0,
        }]));
        assert_eq!(
            client.submit(11, vec![1, 2], Some(id), |_, _| {}),
            Err(ControlError::UnknownReference(id))
        );
        let sent = client.into_inner().sent;
        assert_eq!(
            ControlFrame::read_from(&mut &sent[..])
                .expect("decodes")
                .expect("one frame"),
            ControlFrame::SubmitBatch {
                batch_id: 11,
                tdrb: vec![1, 2],
                reference: Some(id),
            }
        );
        // An Unknown ack with a foreign id is a protocol violation.
        let mut client = Client::new(Scripted::new(&[ControlFrame::ReferenceAck {
            put_id: 99,
            reference: id,
            status: AckStatus::Unknown,
            resident_bytes: 0,
        }]));
        assert_eq!(
            client.submit(11, Vec::new(), Some(id), |_, _| {}),
            Err(ControlError::UnexpectedFrame(
                "ReferenceAck (foreign batch id)"
            ))
        );
    }

    #[test]
    fn client_shutdown_handshake() {
        let client = Client::new(Scripted::new(&[ControlFrame::ShutdownAck]));
        let transport = client.shutdown().expect("acked");
        assert_eq!(
            ControlFrame::read_from(&mut &transport.sent[..])
                .expect("decodes")
                .expect("one frame"),
            ControlFrame::Shutdown
        );
        let client = Client::new(Scripted::new(&[]));
        assert_eq!(client.shutdown().err(), Some(ControlError::Disconnected));
    }
}
