//! Codecs between domain types and the middleware's dynamic [`Value`]
//! representation.
//!
//! NMEA sentences travel the processing graph as `nmea.sentence` items
//! whose payload is a [`Value::List`]: slot 0 is a text type tag, the
//! remaining slots are the sentence's fields in the fixed order of the
//! table below. Components in one process hand each other this structure
//! directly — nothing is serialized to text and parsed back — which
//! keeps the middleware core independent of the NMEA model while letting
//! any component or feature recover the full sentence.
//!
//! # Slot table
//!
//! | tag         | slots after the tag, in order |
//! |-------------|-------------------------------|
//! | `"GGA"`     | time ×4, lat, lon, quality, satellites, hdop, altitude, geoid separation |
//! | `"RMC"`     | time ×4, valid, lat, lon, speed (kn), course (°), date |
//! | `"GSA"`     | auto selection, fix type, PRNs, pdop, hdop, vdop |
//! | `"GSV"`     | total messages, message number, satellites in view, satellites |
//! | `"VTG"`     | course (° true), speed (kn), speed (km/h) |
//! | `"UNKNOWN"` | address (`"GPZDA"`, …), fields |
//!
//! Slot encodings:
//!
//! * time ×4 — four `Int`s: hour, minute, second (`u8`), millis (`u16`);
//! * lat, lon — `Null` (no fix) or `Float`, decimal degrees;
//! * quality — `Int` of [`FixQuality::as_u8`] (decoded with
//!   [`FixQuality::from_u8`], so `Other(0..=2)` reads back as its named
//!   quality, the only form the parser produces);
//! * fix type — `Int` as on the wire: 1 no fix, 2 2-D, 3 3-D;
//! * satellites, counts, message numbers — `Int` (`u8`);
//! * valid, auto selection — `Bool`;
//! * other numbers — `Float`;
//! * date, address — `Text`;
//! * PRNs — `List` of `Int` (`u8`);
//! * satellites (GSV) — `List` of 4-slot `List`s: PRN `Int` (`u8`),
//!   elevation `Int` (`u8`), azimuth `Int` (`u16`), SNR `Null` or
//!   `Int` (`u8`);
//! * fields (UNKNOWN) — `List` of `Text`.
//!
//! The decoder accepts exactly this shape: a wrong or missing tag, a
//! list that is too short or too long, a slot of the wrong variant, an
//! integer outside its field's range or a non-finite float decode to
//! `None`, never to a panic.

use perpos_core::prelude::*;
use perpos_nmea::{
    FixQuality, Gga, Gsa, GsaFixType, Gsv, NmeaTime, Rmc, SatelliteInfo, Sentence, Vtg,
};
use std::fmt;

const TAG_GGA: &str = "GGA";
const TAG_RMC: &str = "RMC";
const TAG_GSA: &str = "GSA";
const TAG_GSV: &str = "GSV";
const TAG_VTG: &str = "VTG";
const TAG_UNKNOWN: &str = "UNKNOWN";

fn tag(t: &str) -> Value {
    Value::Text(t.to_string())
}

fn int(v: impl Into<i64>) -> Value {
    Value::Int(v.into())
}

fn opt_float(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::Float)
}

/// Encodes a parsed NMEA sentence as an item payload (see the slot table
/// in the module docs). Every list is built at its exact length.
pub fn sentence_to_value(s: &Sentence) -> Value {
    Value::List(match s {
        Sentence::Gga(g) => vec![
            tag(TAG_GGA),
            int(g.time.hour),
            int(g.time.minute),
            int(g.time.second),
            int(g.time.millis),
            opt_float(g.lat_deg),
            opt_float(g.lon_deg),
            int(g.quality.as_u8()),
            int(g.num_satellites),
            Value::Float(g.hdop),
            Value::Float(g.altitude_m),
            Value::Float(g.geoid_separation_m),
        ],
        Sentence::Rmc(r) => vec![
            tag(TAG_RMC),
            int(r.time.hour),
            int(r.time.minute),
            int(r.time.second),
            int(r.time.millis),
            Value::Bool(r.valid),
            opt_float(r.lat_deg),
            opt_float(r.lon_deg),
            Value::Float(r.speed_knots),
            Value::Float(r.course_deg),
            Value::Text(r.date.clone()),
        ],
        Sentence::Gsa(g) => vec![
            tag(TAG_GSA),
            Value::Bool(g.auto_selection),
            int(match g.fix_type {
                GsaFixType::NoFix => 1u8,
                GsaFixType::Fix2d => 2,
                GsaFixType::Fix3d => 3,
            }),
            Value::List(g.prns.iter().map(|&p| int(p)).collect()),
            Value::Float(g.pdop),
            Value::Float(g.hdop),
            Value::Float(g.vdop),
        ],
        Sentence::Gsv(g) => vec![
            tag(TAG_GSV),
            int(g.total_messages),
            int(g.message_number),
            int(g.satellites_in_view),
            Value::List(
                g.satellites
                    .iter()
                    .map(|s| {
                        Value::List(vec![
                            int(s.prn),
                            int(s.elevation_deg),
                            int(s.azimuth_deg),
                            s.snr_db.map_or(Value::Null, int),
                        ])
                    })
                    .collect(),
            ),
        ],
        Sentence::Vtg(v) => vec![
            tag(TAG_VTG),
            Value::Float(v.course_true_deg),
            Value::Float(v.speed_knots),
            Value::Float(v.speed_kmh),
        ],
        Sentence::Unknown {
            talker_and_type,
            fields,
        } => vec![
            tag(TAG_UNKNOWN),
            Value::Text(talker_and_type.clone()),
            Value::List(fields.iter().map(|f| Value::Text(f.clone())).collect()),
        ],
    })
}

fn int_of<T: TryFrom<i64>>(v: &Value) -> Option<T> {
    T::try_from(v.as_i64()?).ok()
}

fn float_of(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) if x.is_finite() => Some(*x),
        _ => None,
    }
}

/// Reads a slot that is `Null` or else decodes with `some`.
fn opt_of<T>(v: &Value, some: impl FnOnce(&Value) -> Option<T>) -> Option<Option<T>> {
    match v {
        Value::Null => Some(None),
        v => some(v).map(Some),
    }
}

/// A cursor over the slots of one list. Every reader returns `None` when
/// the list is exhausted or the slot has the wrong shape, so a decoder
/// is a chain of `?`s closed by [`Slots::end`].
struct Slots<'a>(std::slice::Iter<'a, Value>);

impl<'a> Slots<'a> {
    fn new(slots: &'a [Value]) -> Self {
        Slots(slots.iter())
    }

    fn next(&mut self) -> Option<&'a Value> {
        self.0.next()
    }

    fn int<T: TryFrom<i64>>(&mut self) -> Option<T> {
        int_of(self.next()?)
    }

    fn float(&mut self) -> Option<f64> {
        float_of(self.next()?)
    }

    fn bool(&mut self) -> Option<bool> {
        self.next()?.as_bool()
    }

    fn text(&mut self) -> Option<&'a str> {
        self.next()?.as_text()
    }

    fn time(&mut self) -> Option<NmeaTime> {
        Some(NmeaTime::new(
            self.int()?,
            self.int()?,
            self.int()?,
            self.int()?,
        ))
    }

    /// A nested list slot, each element decoded by `item`.
    fn list_of<T>(&mut self, item: impl FnMut(&'a Value) -> Option<T>) -> Option<Vec<T>> {
        self.next()?.as_list()?.iter().map(item).collect()
    }

    /// Succeeds only when every slot has been read.
    fn end(mut self) -> Option<()> {
        self.next().is_none().then_some(())
    }
}

// Struct-literal fields evaluate in source order, so each decoder below
// lists its fields in slot-table order.

fn decode_gga(s: &mut Slots<'_>) -> Option<Gga> {
    Some(Gga {
        time: s.time()?,
        lat_deg: opt_of(s.next()?, float_of)?,
        lon_deg: opt_of(s.next()?, float_of)?,
        quality: FixQuality::from_u8(s.int()?),
        num_satellites: s.int()?,
        hdop: s.float()?,
        altitude_m: s.float()?,
        geoid_separation_m: s.float()?,
    })
}

fn decode_rmc(s: &mut Slots<'_>) -> Option<Rmc> {
    Some(Rmc {
        time: s.time()?,
        valid: s.bool()?,
        lat_deg: opt_of(s.next()?, float_of)?,
        lon_deg: opt_of(s.next()?, float_of)?,
        speed_knots: s.float()?,
        course_deg: s.float()?,
        date: s.text()?.to_string(),
    })
}

fn decode_gsa(s: &mut Slots<'_>) -> Option<Gsa> {
    Some(Gsa {
        auto_selection: s.bool()?,
        fix_type: match s.int::<u8>()? {
            1 => GsaFixType::NoFix,
            2 => GsaFixType::Fix2d,
            3 => GsaFixType::Fix3d,
            _ => return None,
        },
        prns: s.list_of(int_of)?,
        pdop: s.float()?,
        hdop: s.float()?,
        vdop: s.float()?,
    })
}

fn decode_satellite(v: &Value) -> Option<SatelliteInfo> {
    let mut s = Slots::new(v.as_list()?);
    let sat = SatelliteInfo {
        prn: s.int()?,
        elevation_deg: s.int()?,
        azimuth_deg: s.int()?,
        snr_db: opt_of(s.next()?, int_of)?,
    };
    s.end()?;
    Some(sat)
}

fn decode_gsv(s: &mut Slots<'_>) -> Option<Gsv> {
    Some(Gsv {
        total_messages: s.int()?,
        message_number: s.int()?,
        satellites_in_view: s.int()?,
        satellites: s.list_of(decode_satellite)?,
    })
}

fn decode_vtg(s: &mut Slots<'_>) -> Option<Vtg> {
    Some(Vtg {
        course_true_deg: s.float()?,
        speed_knots: s.float()?,
        speed_kmh: s.float()?,
    })
}

fn decode_unknown(s: &mut Slots<'_>) -> Option<Sentence> {
    Some(Sentence::Unknown {
        talker_and_type: s.text()?.to_string(),
        fields: s.list_of(|v| v.as_text().map(str::to_string))?,
    })
}

/// Splits an encoded payload into its tag and the slots after it.
fn tagged(v: &Value) -> Option<(&str, Slots<'_>)> {
    let (tag, rest) = v.as_list()?.split_first()?;
    Some((tag.as_text()?, Slots::new(rest)))
}

/// Decodes an item payload produced by [`sentence_to_value`]; `None` for
/// any value that does not match the slot table exactly.
pub fn value_to_sentence(v: &Value) -> Option<Sentence> {
    let (tag, mut s) = tagged(v)?;
    let sentence = match tag {
        TAG_GGA => Sentence::Gga(decode_gga(&mut s)?),
        TAG_RMC => Sentence::Rmc(decode_rmc(&mut s)?),
        TAG_GSA => Sentence::Gsa(decode_gsa(&mut s)?),
        TAG_GSV => Sentence::Gsv(decode_gsv(&mut s)?),
        TAG_VTG => Sentence::Vtg(decode_vtg(&mut s)?),
        TAG_UNKNOWN => decode_unknown(&mut s)?,
        _ => return None,
    };
    s.end()?;
    Some(sentence)
}

/// Convenience: decodes the sentence carried by an `nmea.sentence` item.
pub fn sentence_of(item: &DataItem) -> Option<Sentence> {
    if item.kind != kinds::NMEA_SENTENCE {
        return None;
    }
    value_to_sentence(&item.payload)
}

/// The GGA fix carried by an `nmea.sentence` item, if it carries one.
///
/// The tag slot is checked before anything is decoded, so consumers that
/// only want fixes pay nothing for RMC, GSA, GSV and the rest.
pub fn gga_of(item: &DataItem) -> Option<Gga> {
    if item.kind != kinds::NMEA_SENTENCE {
        return None;
    }
    let (TAG_GGA, mut s) = tagged(&item.payload)? else {
        return None;
    };
    let gga = decode_gga(&mut s)?;
    s.end()?;
    Some(gga)
}

/// A per-line defect found while scanning a trace block. Carries the
/// 1-based line number within the block so a corrupt capture can be
/// diagnosed without re-scanning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// The line does not start with `$`.
    MissingStart {
        /// 1-based line number within the block.
        line: usize,
    },
    /// The line contains a byte outside printable ASCII.
    NonAscii {
        /// 1-based line number within the block.
        line: usize,
        /// Byte offset of the first offending byte within the line.
        byte: usize,
    },
    /// A `*` suffix is present but not followed by exactly two hex digits.
    TruncatedChecksum {
        /// 1-based line number within the block.
        line: usize,
    },
    /// The `*XX` checksum does not match the XOR of the sentence body.
    BadChecksum {
        /// 1-based line number within the block.
        line: usize,
        /// Checksum computed from the sentence body.
        expected: u8,
        /// Checksum carried on the line.
        found: u8,
    },
}

impl TraceError {
    /// 1-based line number within the scanned block.
    pub fn line(&self) -> usize {
        match *self {
            TraceError::MissingStart { line }
            | TraceError::NonAscii { line, .. }
            | TraceError::TruncatedChecksum { line }
            | TraceError::BadChecksum { line, .. } => line,
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceError::MissingStart { line } => {
                write!(f, "line {line}: sentence does not start with '$'")
            }
            TraceError::NonAscii { line, byte } => {
                write!(f, "line {line}: non-ASCII byte at offset {byte}")
            }
            TraceError::TruncatedChecksum { line } => {
                write!(f, "line {line}: '*' not followed by two hex digits")
            }
            TraceError::BadChecksum {
                line,
                expected,
                found,
            } => {
                write!(
                    f,
                    "line {line}: checksum {found:02X} != computed {expected:02X}"
                )
            }
        }
    }
}

/// Outcome of scanning one trace block: how many lines were accepted,
/// how many were skipped, and a typed error per skipped line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockReport {
    /// Lines that passed validation and were appended to the output.
    pub parsed: usize,
    /// Malformed lines that were counted and skipped (never fatal).
    pub skipped: usize,
    /// One typed error per skipped line, in block order.
    pub errors: Vec<TraceError>,
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'A'..=b'F' => Some(b - b'A' + 10),
        b'a'..=b'f' => Some(b - b'a' + 10),
        _ => None,
    }
}

/// Scans a newline-delimited block of NMEA sentences in a single
/// bounds-checked pass, appending each valid line to `out`.
///
/// Validation per line: leading `$`, printable ASCII throughout, and —
/// when the line ends in `*HH` — a two-hex-digit checksum equal to the
/// XOR of the bytes between `$` and the final `*`. Lines without a
/// trailing checksum are accepted (checksums are optional in captures);
/// a `*` in the last three bytes that is not a well-formed `*HH` is
/// reported as truncated. Blank lines and a trailing `\r` are tolerated
/// silently. Malformed lines are counted and reported, never fatal.
///
/// `out` is cleared first and then holds exactly this block's valid
/// lines, so one buffer can be reused across blocks (the allocation is
/// kept); the scan itself allocates nothing besides error records.
pub fn scan_block<'a>(block: &'a str, out: &mut Vec<&'a str>) -> BlockReport {
    out.clear();
    let mut report = BlockReport::default();
    let mut lineno = 0usize;
    for raw in block.split('\n') {
        let line = raw.strip_suffix('\r').unwrap_or(raw);
        if line.is_empty() {
            continue;
        }
        lineno += 1;
        let bytes = line.as_bytes();
        // Wide vectorizable passes instead of one branchy byte loop:
        // an all-printable check, a reverse `*` find, and an XOR fold
        // paid only by lines that actually carry a checksum.
        // Branchless violation fold: a short-circuiting `all()` compiles
        // to a byte-at-a-time loop, while an OR reduction vectorizes —
        // clean lines (the common case) pay a few lanes, not a cycle per
        // byte. The exact offset is only recovered on the error path.
        let viol = bytes
            .iter()
            .fold(0u8, |a, &b| a | u8::from(!(0x20..0x7f).contains(&b)));
        let err = if viol != 0 {
            let byte = bytes
                .iter()
                .position(|&b| !(0x20..0x7f).contains(&b))
                .unwrap_or(0);
            Some(TraceError::NonAscii { line: lineno, byte })
        } else if bytes[0] != b'$' {
            Some(TraceError::MissingStart { line: lineno })
        } else {
            // A checksum is a trailing `*HH`; `*` anywhere else is a
            // body byte (the spec XORs every byte between `$` and the
            // final `*`, so a stray `*` simply contributes to the sum).
            // Probing only the 3-byte tail keeps checksum-less lines
            // from paying a whole-line reverse scan.
            let tail = bytes.get(bytes.len().saturating_sub(3)..).unwrap_or(b"");
            match tail {
                [b'*', hi, lo] => match (hex_val(*hi), hex_val(*lo)) {
                    (Some(h), Some(l)) => {
                        let s = bytes.len() - 3;
                        let xor = bytes[1..s].iter().fold(0u8, |a, &b| a ^ b);
                        let found = (h << 4) | l;
                        (found != xor).then_some(TraceError::BadChecksum {
                            line: lineno,
                            expected: xor,
                            found,
                        })
                    }
                    _ => Some(TraceError::TruncatedChecksum { line: lineno }),
                },
                // A `*` in the tail window that is not a well-formed
                // `*HH` is a checksum cut off mid-write.
                t if t.contains(&b'*') => Some(TraceError::TruncatedChecksum { line: lineno }),
                _ => None,
            }
        };
        match err {
            Some(e) => {
                report.skipped += 1;
                report.errors.push(e);
            }
            None => {
                report.parsed += 1;
                out.push(line);
            }
        }
    }
    report
}

/// Scans `block` and feeds every valid line through the middleware's
/// batch-ingest path as `kind` items emitted by `source`, one logical
/// step per line. Returns the number of items ingested alongside the
/// scan report. Convenience wrapper over [`scan_block`] +
/// [`Middleware::ingest_batch`]; hot loops that want zero steady-state
/// allocation should call those directly with a reused line buffer.
pub fn ingest_nmea_block(
    mw: &mut Middleware,
    source: NodeId,
    kind: DataKind,
    block: &str,
    tick: SimDuration,
) -> Result<(u64, BlockReport), CoreError> {
    let mut lines = Vec::new();
    let report = scan_block(block, &mut lines);
    let ingested = mw.ingest_batch(source, kind, &lines, tick)?;
    Ok((ingested, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpos_core::SimTime;
    use perpos_nmea::parse_sentence;
    use proptest::prelude::*;
    use proptest::{collection, option};

    #[test]
    fn sentence_round_trip() {
        let line = "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47";
        let sentence = parse_sentence(line).unwrap();
        let v = sentence_to_value(&sentence);
        assert_eq!(value_to_sentence(&v), Some(sentence));
    }

    #[test]
    fn gga_payload_follows_the_slot_table() {
        let line = "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47";
        let Sentence::Gga(gga) = parse_sentence(line).unwrap() else {
            panic!("not GGA");
        };
        let v = sentence_to_value(&Sentence::Gga(gga.clone()));
        assert_eq!(
            v,
            Value::List(vec![
                Value::from("GGA"),
                Value::Int(12),
                Value::Int(35),
                Value::Int(19),
                Value::Int(0),
                Value::Float(gga.lat_deg.unwrap()),
                Value::Float(gga.lon_deg.unwrap()),
                Value::Int(1),
                Value::Int(8),
                Value::Float(0.9),
                Value::Float(545.4),
                Value::Float(46.9),
            ])
        );
        // Built at its exact length: no spare slots retained per item.
        let Value::List(slots) = &v else {
            unreachable!()
        };
        assert_eq!(slots.capacity(), slots.len());
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let v = sentence_to_value(&Sentence::Gga(Gga::default()));
        let item = DataItem::new(kinds::RAW_STRING, SimTime::ZERO, v);
        assert_eq!(sentence_of(&item), None);
        assert_eq!(gga_of(&item), None);
    }

    #[test]
    fn gga_of_reads_only_gga() {
        let item = |line: &str| {
            let v = sentence_to_value(&parse_sentence(line).unwrap());
            DataItem::new(kinds::NMEA_SENTENCE, SimTime::ZERO, v)
        };
        let gga = item("$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47");
        assert_eq!(
            gga_of(&gga).map(Sentence::Gga),
            sentence_of(&gga),
            "gga_of agrees with the full decoder"
        );
        let rmc = item("$GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A");
        assert!(sentence_of(&rmc).is_some());
        assert_eq!(gga_of(&rmc), None);
    }

    const SAMPLES: [&str; 6] = [
        "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47",
        "$GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A",
        "$GPGSA,A,3,04,05,,09,12,,,24,,,,,2.5,1.3,2.1*39",
        "$GPGSV,2,1,08,01,40,083,46,02,17,308,41,12,07,344,39,14,22,228,45*75",
        "$GPVTG,054.7,T,034.4,M,005.5,N,010.2,K*48",
        "$GPZDA,160012.71,11,03,2004,-1,00*7D",
    ];

    #[test]
    fn all_sentence_types_round_trip() {
        for line in SAMPLES {
            let s = parse_sentence(line).unwrap();
            assert_eq!(value_to_sentence(&sentence_to_value(&s)), Some(s), "{line}");
        }
    }

    fn time((hour, minute, second, millis): (u8, u8, u8, u16)) -> NmeaTime {
        NmeaTime::new(hour, minute, second, millis)
    }

    /// Checks `s` round-trips exactly, both as generated and as the
    /// parser reads back the line the NMEA encoder renders for it.
    fn assert_round_trips(s: Sentence) -> Result<(), TestCaseError> {
        prop_assert_eq!(value_to_sentence(&sentence_to_value(&s)), Some(s.clone()));
        let line = s.to_nmea_string();
        let reparsed =
            parse_sentence(&line).map_err(|e| TestCaseError::fail(format!("{line}: {e}")))?;
        prop_assert_eq!(
            value_to_sentence(&sentence_to_value(&reparsed)),
            Some(reparsed)
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// GGA with and without a fix (empty coordinates, quality 0).
        fn gga_round_trips(
            t in (0u8..24, 0u8..60, 0u8..60, 0u16..1000),
            fix in option::of((-89.9f64..89.9, -179.9f64..179.9)),
            quality in 0u8..9,
            sats in 0u8..25,
            nums in (0.5f64..50.0, -400.0f64..9000.0, -100.0f64..100.0),
        ) {
            assert_round_trips(Sentence::Gga(Gga {
                time: time(t),
                lat_deg: fix.map(|f| f.0),
                lon_deg: fix.map(|f| f.1),
                quality: FixQuality::from_u8(if fix.is_some() { quality } else { 0 }),
                num_satellites: sats,
                hdop: nums.0,
                altitude_m: nums.1,
                geoid_separation_m: nums.2,
            }))?;
        }

        /// Valid and void RMC; a void one carries no coordinates.
        fn rmc_round_trips(
            t in (0u8..24, 0u8..60, 0u8..60, 0u16..1000),
            valid in any::<bool>(),
            fix in (-89.9f64..89.9, -179.9f64..179.9),
            motion in (0.0f64..200.0, 0.0f64..360.0),
            date in "[0-9]{6}",
        ) {
            assert_round_trips(Sentence::Rmc(Rmc {
                time: time(t),
                valid,
                lat_deg: valid.then_some(fix.0),
                lon_deg: valid.then_some(fix.1),
                speed_knots: motion.0,
                course_deg: motion.1,
                date,
            }))?;
        }

        /// GSA with empty PRN slots (fewer than twelve PRNs, or none).
        fn gsa_round_trips(
            auto in any::<bool>(),
            fix in 0u8..3,
            prns in collection::vec(1u8..100, 0..13),
            dops in (0.5f64..50.0, 0.5f64..50.0, 0.5f64..50.0),
        ) {
            assert_round_trips(Sentence::Gsa(Gsa {
                auto_selection: auto,
                fix_type: [GsaFixType::NoFix, GsaFixType::Fix2d, GsaFixType::Fix3d][usize::from(fix)],
                prns,
                pdop: dops.0,
                hdop: dops.1,
                vdop: dops.2,
            }))?;
        }

        /// GSV records with and without an SNR.
        fn gsv_round_trips(
            head in (1u8..5, 1u8..5, 0u8..17),
            sats in collection::vec(
                (1u8..100, 0u8..91, 0u16..360, option::of(0u8..100)),
                0..5,
            ),
        ) {
            assert_round_trips(Sentence::Gsv(Gsv {
                total_messages: head.0,
                message_number: head.1,
                satellites_in_view: head.2,
                satellites: sats
                    .into_iter()
                    .map(|(prn, elevation_deg, azimuth_deg, snr_db)| SatelliteInfo {
                        prn,
                        elevation_deg,
                        azimuth_deg,
                        snr_db,
                    })
                    .collect(),
            }))?;
        }

        fn vtg_round_trips(v in (0.0f64..360.0, 0.0f64..200.0, 0.0f64..370.0)) {
            assert_round_trips(Sentence::Vtg(Vtg {
                course_true_deg: v.0,
                speed_knots: v.1,
                speed_kmh: v.2,
            }))?;
        }

        /// Unknown sentences keep their address and raw fields.
        fn unknown_round_trips(
            address in "GP[A-F]{3}",
            fields in collection::vec("[-0-9A-Z.]{0,6}", 0..8),
        ) {
            assert_round_trips(Sentence::Unknown {
                talker_and_type: address,
                fields,
            })?;
        }
    }

    /// Replaces slot `i` of an encoded payload.
    fn with_slot(v: &Value, i: usize, slot: Value) -> Value {
        let mut slots = v.as_list().unwrap().to_vec();
        slots[i] = slot;
        Value::List(slots)
    }

    #[test]
    fn malformed_payload_is_none() {
        let gga = sentence_to_value(&parse_sentence(SAMPLES[0]).unwrap());
        let gsv = sentence_to_value(&parse_sentence(SAMPLES[3]).unwrap());
        let short = Value::List(gga.as_list().unwrap()[..6].to_vec());
        let mut long = gga.as_list().unwrap().to_vec();
        long.push(Value::Null);
        let mut bad_sat = gsv.as_list().unwrap()[4].as_list().unwrap().to_vec();
        bad_sat[0] = Value::List(vec![Value::Int(1)]);
        let hostile = [
            // FaultInjector's garbage payload, and the old JSON form.
            ("garbage text", Value::from("\u{fffd}garbage")),
            ("json text", Value::from(r#"{"Gga":{}}"#)),
            ("null", Value::Null),
            ("int", Value::Int(1)),
            ("empty list", Value::List(Vec::new())),
            ("untagged", with_slot(&gga, 0, Value::Int(0))),
            ("unknown tag", with_slot(&gga, 0, Value::from("ZDA"))),
            (
                "tag of another type",
                with_slot(&gga, 0, Value::from("RMC")),
            ),
            ("short list", short),
            ("long list", Value::List(long)),
            (
                "int slot holds a float",
                with_slot(&gga, 1, Value::Float(12.0)),
            ),
            ("float slot holds an int", with_slot(&gga, 9, Value::Int(1))),
            (
                "optional float holds text",
                with_slot(&gga, 5, Value::from("48")),
            ),
            ("hour above u8", with_slot(&gga, 1, Value::Int(256))),
            ("negative satellites", with_slot(&gga, 8, Value::Int(-1))),
            ("quality above u8", with_slot(&gga, 7, Value::Int(i64::MAX))),
            ("nan hdop", with_slot(&gga, 9, Value::Float(f64::NAN))),
            (
                "infinite latitude",
                with_slot(&gga, 5, Value::Float(f64::INFINITY)),
            ),
            (
                "azimuth above u16",
                with_slot(
                    &gsv,
                    4,
                    Value::List(vec![Value::List(vec![
                        Value::Int(1),
                        Value::Int(2),
                        Value::Int(65_536),
                        Value::Null,
                    ])]),
                ),
            ),
            (
                "satellite slot not a list",
                with_slot(&gsv, 4, Value::List(vec![Value::Int(1)])),
            ),
            (
                "satellite prn not an int",
                with_slot(&gsv, 4, Value::List(bad_sat)),
            ),
        ];
        for (what, v) in hostile {
            assert_eq!(value_to_sentence(&v), None, "{what}");
            let item = DataItem::new(kinds::NMEA_SENTENCE, SimTime::ZERO, v);
            assert_eq!(gga_of(&item), None, "{what}");
        }
    }

    #[test]
    fn clean_block_parses_every_line() {
        let block = "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47\r\n\
                     $GPVTG,054.7,T,034.4,M,005.5,N,010.2,K*48\n\
                     $GPXXX,no,checksum,is,fine\n";
        let mut out = Vec::new();
        let report = scan_block(block, &mut out);
        assert_eq!(report.parsed, 3);
        assert_eq!(report.skipped, 0);
        assert!(report.errors.is_empty());
        assert_eq!(out.len(), 3);
        // `\r` is stripped, the checksum suffix is kept.
        assert!(out[0].ends_with("*47"));
    }

    #[test]
    fn corrupt_block_counts_and_skips_each_defect() {
        // A realistic corrupt capture: good line, bad checksum, binary
        // garbage mid-stream, a line missing '$', a '*' cut off by a
        // write tear, blank separators, then a good tail line.
        let block = "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47\n\
                     $GPVTG,054.7,T,034.4,M,005.5,N,010.2,K*FF\n\
                     \u{fffd}\u{fffd}binary tear\n\
                     GPRMC,123519,A,4807.038,N\n\
                     $GPGSA,A,3,04,05*4\n\
                     \n\
                     $GPXXX,tail\n";
        let mut out = Vec::new();
        let report = scan_block(block, &mut out);
        assert_eq!(report.parsed, 2);
        assert_eq!(report.skipped, 4);
        assert_eq!(
            out,
            vec![
                "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47",
                "$GPXXX,tail",
            ]
        );
        assert_eq!(report.errors.len(), 4);
        assert!(
            matches!(
                report.errors[0],
                TraceError::BadChecksum {
                    line: 2,
                    found: 0xFF,
                    ..
                }
            ),
            "{:?}",
            report.errors[0]
        );
        assert!(matches!(
            report.errors[1],
            TraceError::NonAscii { line: 3, byte: 0 }
        ));
        assert!(matches!(
            report.errors[2],
            TraceError::MissingStart { line: 4 }
        ));
        assert!(matches!(
            report.errors[3],
            TraceError::TruncatedChecksum { line: 5 }
        ));
        // Errors render with their line numbers for diagnostics.
        assert!(report.errors[0].to_string().contains("line 2"));
        assert_eq!(report.errors[3].line(), 5);
    }

    #[test]
    fn checksum_is_xor_of_body() {
        // "$GPGGA,1*XX": body XOR of "GPGGA,1".
        let xor = "GPGGA,1".bytes().fold(0u8, |a, b| a ^ b);
        let good = format!("$GPGGA,1*{xor:02X}\n");
        let bad = format!("$GPGGA,1*{:02X}\n", xor ^ 1);
        let mut out = Vec::new();
        assert_eq!(scan_block(&good, &mut out).parsed, 1);
        let report = scan_block(&bad, &mut out);
        assert_eq!(report.skipped, 1);
        assert!(
            matches!(report.errors[0], TraceError::BadChecksum { expected, found, .. }
                if expected == xor && found == xor ^ 1)
        );
    }

    #[test]
    fn block_ingest_feeds_valid_lines_through_the_graph() {
        use std::sync::{Arc, Mutex};

        let mut mw = Middleware::new();
        let src = mw.add_component(FnSource::new("trace", kinds::RAW_STRING, |_| None));
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let tap_seen = Arc::clone(&seen);
        let tap = mw.add_component(FnProcessor::new(
            "tap",
            vec![kinds::RAW_STRING],
            kinds::RAW_STRING,
            move |item: &DataItem| {
                if let Some(text) = item.payload.as_text() {
                    tap_seen.lock().unwrap().push(text.to_string());
                }
                None
            },
        ));
        mw.connect(src, tap, 0).unwrap();

        let block = "$GPXXX,one\nnope\n$GPXXX,two\n";
        let (ingested, report) = ingest_nmea_block(
            &mut mw,
            src,
            kinds::RAW_STRING,
            block,
            SimDuration::from_micros(1),
        )
        .unwrap();
        assert_eq!(ingested, 2);
        assert_eq!(report.parsed, 2);
        assert_eq!(report.skipped, 1);
        assert_eq!(*seen.lock().unwrap(), vec!["$GPXXX,one", "$GPXXX,two"]);
    }
}
