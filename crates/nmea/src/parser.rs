use crate::sentence::{
    FixQuality, Gga, Gsa, GsaFixType, Gsv, NmeaTime, Rmc, SatelliteInfo, Sentence, Vtg,
};
use crate::NmeaError;

/// Maximum sentence length (including `$` and checksum) per NMEA-0183.
pub(crate) const MAX_SENTENCE_LEN: usize = 82;

/// Computes the NMEA checksum (XOR of all bytes) over a sentence body,
/// i.e. the characters between `$` and `*`.
///
/// ```
/// assert_eq!(perpos_nmea::checksum("GPGGA,,,,,,0,00,,,M,,M,,"), 0x66);
/// ```
pub fn checksum(body: &str) -> u8 {
    body.bytes().fold(0, |acc, b| acc ^ b)
}

/// Verifies the `*hh` checksum of a complete sentence.
///
/// # Errors
///
/// Returns an error when the framing or checksum is invalid. On success the
/// sentence body (between `$` and `*`) is returned.
pub fn verify_checksum(sentence: &str) -> Result<&str, NmeaError> {
    let s = sentence.trim_end_matches(['\r', '\n']);
    if s.len() > MAX_SENTENCE_LEN {
        return Err(NmeaError::SentenceTooLong(s.len()));
    }
    let body_and_sum = s
        .strip_prefix('$')
        .ok_or(NmeaError::MissingStartDelimiter)?;
    let star = body_and_sum.rfind('*').ok_or(NmeaError::MissingChecksum)?;
    let (body, sum_text) = body_and_sum.split_at(star);
    let sum_text = &sum_text[1..];
    if sum_text.len() != 2 {
        return Err(NmeaError::MalformedChecksum(sum_text.to_string()));
    }
    let transmitted = u8::from_str_radix(sum_text, 16)
        .map_err(|_| NmeaError::MalformedChecksum(sum_text.to_string()))?;
    let computed = checksum(body);
    if computed != transmitted {
        return Err(NmeaError::ChecksumMismatch {
            computed,
            transmitted,
        });
    }
    Ok(body)
}

/// Parses one complete NMEA sentence (with `$` framing and checksum).
///
/// Unrecognized sentence types parse to [`Sentence::Unknown`] so a PerPos
/// Parser component can still forward them.
///
/// # Errors
///
/// Returns [`NmeaError`] when framing, checksum, or a required field is
/// invalid.
pub fn parse_sentence(sentence: &str) -> Result<Sentence, NmeaError> {
    let body = verify_checksum(sentence)?;
    let mut fields = body.split(',');
    let address = fields.next().unwrap_or_default().to_string();
    let rest: Vec<&str> = fields.collect();
    let type_code = if address.len() >= 5 {
        &address[2..5]
    } else {
        address.as_str()
    };
    match type_code {
        "GGA" => parse_gga(&rest).map(Sentence::Gga),
        "RMC" => parse_rmc(&rest).map(Sentence::Rmc),
        "GSA" => parse_gsa(&rest).map(Sentence::Gsa),
        "GSV" => parse_gsv(&rest).map(Sentence::Gsv),
        "VTG" => parse_vtg(&rest).map(Sentence::Vtg),
        _ => Ok(Sentence::Unknown {
            talker_and_type: address,
            fields: rest.iter().map(|s| s.to_string()).collect(),
        }),
    }
}

fn need(fields: &[&str], n: usize, sentence: &'static str) -> Result<(), NmeaError> {
    if fields.len() < n {
        Err(NmeaError::TooFewFields {
            sentence,
            got: fields.len(),
            need: n,
        })
    } else {
        Ok(())
    }
}

fn parse_time(text: &str) -> Result<NmeaTime, NmeaError> {
    if text.is_empty() {
        return Ok(NmeaTime::default());
    }
    let bad = || NmeaError::InvalidField {
        field: "time",
        value: text.to_string(),
    };
    if text.len() < 6 {
        return Err(bad());
    }
    let hour: u8 = text[0..2].parse().map_err(|_| bad())?;
    let minute: u8 = text[2..4].parse().map_err(|_| bad())?;
    let second: u8 = text[4..6].parse().map_err(|_| bad())?;
    if hour > 23 || minute > 59 || second > 60 {
        return Err(bad());
    }
    let millis = if let Some(frac) = text.get(6..).filter(|f| f.starts_with('.')) {
        let frac_val = parse_finite(frac).ok_or_else(bad)?;
        // Saturate: a fraction that rounds up to a whole second (e.g.
        // `.9996`) must not produce 1000 ms, which `NmeaTime` and the
        // encoder's three-digit field cannot represent.
        ((frac_val * 1000.0).round() as u16).min(999)
    } else {
        0
    };
    Ok(NmeaTime::new(hour, minute, second, millis))
}

/// Parses `ddmm.mmmm` / `dddmm.mmmm` plus hemisphere into decimal degrees.
fn parse_coord(value: &str, hemi: &str, field: &'static str) -> Result<Option<f64>, NmeaError> {
    if value.is_empty() || hemi.is_empty() {
        return Ok(None);
    }
    let bad = || NmeaError::InvalidField {
        field,
        value: format!("{value},{hemi}"),
    };
    let dot = value.find('.').unwrap_or(value.len());
    if dot < 3 {
        return Err(bad());
    }
    let deg_digits = dot - 2;
    let degrees = parse_finite(&value[..deg_digits]).ok_or_else(bad)?;
    let minutes = parse_finite(&value[deg_digits..]).ok_or_else(bad)?;
    if minutes >= 60.0 {
        return Err(bad());
    }
    let magnitude = degrees + minutes / 60.0;
    let signed = match hemi {
        "N" | "E" => magnitude,
        "S" | "W" => -magnitude,
        _ => return Err(bad()),
    };
    Ok(Some(signed))
}

/// Parses a decimal number, rejecting what `str::parse::<f64>` accepts
/// but no NMEA field can carry: `NaN`, `inf`, `infinity` and overflows
/// such as `1e400` that round to infinity.
fn parse_finite(text: &str) -> Option<f64> {
    text.parse::<f64>().ok().filter(|v| v.is_finite())
}

fn parse_f64_or(text: &str, default: f64, field: &'static str) -> Result<f64, NmeaError> {
    if text.is_empty() {
        return Ok(default);
    }
    parse_finite(text).ok_or_else(|| NmeaError::InvalidField {
        field,
        value: text.to_string(),
    })
}

fn parse_u8_or(text: &str, default: u8, field: &'static str) -> Result<u8, NmeaError> {
    if text.is_empty() {
        return Ok(default);
    }
    text.parse().map_err(|_| NmeaError::InvalidField {
        field,
        value: text.to_string(),
    })
}

fn parse_gga(f: &[&str]) -> Result<Gga, NmeaError> {
    need(f, 14, "GGA")?;
    Ok(Gga {
        time: parse_time(f[0])?,
        lat_deg: parse_coord(f[1], f[2], "latitude")?,
        lon_deg: parse_coord(f[3], f[4], "longitude")?,
        quality: FixQuality::from_u8(parse_u8_or(f[5], 0, "quality")?),
        num_satellites: parse_u8_or(f[6], 0, "satellites")?,
        hdop: parse_f64_or(f[7], 99.9, "hdop")?,
        altitude_m: parse_f64_or(f[8], 0.0, "altitude")?,
        geoid_separation_m: parse_f64_or(f[10], 0.0, "geoid separation")?,
    })
}

fn parse_rmc(f: &[&str]) -> Result<Rmc, NmeaError> {
    need(f, 9, "RMC")?;
    Ok(Rmc {
        time: parse_time(f[0])?,
        valid: f[1] == "A",
        lat_deg: parse_coord(f[2], f[3], "latitude")?,
        lon_deg: parse_coord(f[4], f[5], "longitude")?,
        speed_knots: parse_f64_or(f[6], 0.0, "speed")?,
        course_deg: parse_f64_or(f[7], 0.0, "course")?,
        date: f[8].to_string(),
    })
}

fn parse_gsa(f: &[&str]) -> Result<Gsa, NmeaError> {
    need(f, 17, "GSA")?;
    let fix_type = match f[1] {
        "2" => GsaFixType::Fix2d,
        "3" => GsaFixType::Fix3d,
        _ => GsaFixType::NoFix,
    };
    let mut prns = Vec::new();
    for field in &f[2..14] {
        if !field.is_empty() {
            prns.push(parse_u8_or(field, 0, "prn")?);
        }
    }
    Ok(Gsa {
        auto_selection: f[0] == "A",
        fix_type,
        prns,
        pdop: parse_f64_or(f[14], 99.9, "pdop")?,
        hdop: parse_f64_or(f[15], 99.9, "hdop")?,
        vdop: parse_f64_or(f[16], 99.9, "vdop")?,
    })
}

fn parse_gsv(f: &[&str]) -> Result<Gsv, NmeaError> {
    need(f, 3, "GSV")?;
    let mut satellites = Vec::new();
    let mut i = 3;
    while i + 3 < f.len() + 1 && i + 3 <= f.len() {
        let chunk = &f[i..i + 4];
        if chunk[0].is_empty() {
            break;
        }
        satellites.push(SatelliteInfo {
            prn: parse_u8_or(chunk[0], 0, "prn")?,
            elevation_deg: parse_u8_or(chunk[1], 0, "elevation")?,
            azimuth_deg: if chunk[2].is_empty() {
                0
            } else {
                chunk[2].parse().map_err(|_| NmeaError::InvalidField {
                    field: "azimuth",
                    value: chunk[2].to_string(),
                })?
            },
            snr_db: if chunk[3].is_empty() {
                None
            } else {
                Some(parse_u8_or(chunk[3], 0, "snr")?)
            },
        });
        i += 4;
    }
    Ok(Gsv {
        total_messages: parse_u8_or(f[0], 1, "total messages")?,
        message_number: parse_u8_or(f[1], 1, "message number")?,
        satellites_in_view: parse_u8_or(f[2], 0, "satellites in view")?,
        satellites,
    })
}

fn parse_vtg(f: &[&str]) -> Result<Vtg, NmeaError> {
    need(f, 7, "VTG")?;
    Ok(Vtg {
        course_true_deg: parse_f64_or(f[0], 0.0, "course")?,
        speed_knots: parse_f64_or(f[4], 0.0, "speed knots")?,
        speed_kmh: parse_f64_or(f[6], 0.0, "speed kmh")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GGA: &str = "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47";
    const RMC: &str = "$GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A";
    const GSA: &str = "$GPGSA,A,3,04,05,,09,12,,,24,,,,,2.5,1.3,2.1*39";
    const GSV: &str = "$GPGSV,2,1,08,01,40,083,46,02,17,308,41,12,07,344,39,14,22,228,45*75";
    const VTG: &str = "$GPVTG,054.7,T,034.4,M,005.5,N,010.2,K*48";

    #[test]
    fn parses_gga() {
        let Sentence::Gga(g) = parse_sentence(GGA).unwrap() else {
            panic!("not GGA");
        };
        assert_eq!(g.time, NmeaTime::new(12, 35, 19, 0));
        assert!((g.lat_deg.unwrap() - (48.0 + 7.038 / 60.0)).abs() < 1e-9);
        assert!((g.lon_deg.unwrap() - (11.0 + 31.0 / 60.0)).abs() < 1e-9);
        assert_eq!(g.quality, FixQuality::Gps);
        assert_eq!(g.num_satellites, 8);
        assert!((g.hdop - 0.9).abs() < 1e-12);
        assert!((g.altitude_m - 545.4).abs() < 1e-12);
    }

    #[test]
    fn parses_rmc() {
        let Sentence::Rmc(r) = parse_sentence(RMC).unwrap() else {
            panic!("not RMC");
        };
        assert!(r.valid);
        assert!((r.speed_knots - 22.4).abs() < 1e-12);
        assert!((r.course_deg - 84.4).abs() < 1e-12);
        assert_eq!(r.date, "230394");
    }

    #[test]
    fn parses_gsa() {
        let Sentence::Gsa(g) = parse_sentence(GSA).unwrap() else {
            panic!("not GSA");
        };
        assert_eq!(g.fix_type, GsaFixType::Fix3d);
        assert_eq!(g.prns, vec![4, 5, 9, 12, 24]);
        assert!((g.hdop - 1.3).abs() < 1e-12);
    }

    #[test]
    fn parses_gsv() {
        let Sentence::Gsv(g) = parse_sentence(GSV).unwrap() else {
            panic!("not GSV");
        };
        assert_eq!(g.total_messages, 2);
        assert_eq!(g.satellites.len(), 4);
        assert_eq!(g.satellites[0].prn, 1);
        assert_eq!(g.satellites[0].snr_db, Some(46));
    }

    #[test]
    fn parses_vtg() {
        let Sentence::Vtg(v) = parse_sentence(VTG).unwrap() else {
            panic!("not VTG");
        };
        assert!((v.course_true_deg - 54.7).abs() < 1e-12);
        assert!((v.speed_knots - 5.5).abs() < 1e-12);
        assert!((v.speed_kmh - 10.2).abs() < 1e-12);
    }

    #[test]
    fn unknown_sentence_is_preserved() {
        let body = "GPZDA,160012.71,11,03,2004,-1,00";
        let line = format!("${body}*{:02X}", checksum(body));
        let Sentence::Unknown {
            talker_and_type,
            fields,
        } = parse_sentence(&line).unwrap()
        else {
            panic!("not unknown");
        };
        assert_eq!(talker_and_type, "GPZDA");
        assert_eq!(fields.len(), 6);
    }

    #[test]
    fn rejects_bad_checksum() {
        let line = GGA.replace("*47", "*48");
        assert!(matches!(
            parse_sentence(&line),
            Err(NmeaError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn rejects_missing_framing() {
        assert!(matches!(
            parse_sentence("GPGGA,foo*00"),
            Err(NmeaError::MissingStartDelimiter)
        ));
        assert!(matches!(
            parse_sentence("$GPGGA,foo"),
            Err(NmeaError::MissingChecksum)
        ));
        assert!(matches!(
            parse_sentence("$GPGGA,foo*4"),
            Err(NmeaError::MalformedChecksum(_))
        ));
    }

    #[test]
    fn rejects_overlong_sentence() {
        let body = format!("GPGGA,{}", "x".repeat(100));
        let line = format!("${body}*{:02X}", checksum(&body));
        assert!(matches!(
            parse_sentence(&line),
            Err(NmeaError::SentenceTooLong(_))
        ));
    }

    #[test]
    fn empty_fix_gga_has_no_position() {
        let body = "GPGGA,123519,,,,,0,00,,,M,,M,,";
        let line = format!("${body}*{:02X}", checksum(body));
        let Sentence::Gga(g) = parse_sentence(&line).unwrap() else {
            panic!("not GGA");
        };
        assert_eq!(g.lat_deg, None);
        assert_eq!(g.quality, FixQuality::Invalid);
        assert!(!Sentence::Gga(g).has_fix());
    }

    #[test]
    fn rejects_invalid_minutes() {
        // 61 minutes is not a valid coordinate.
        let body = "GPGGA,123519,4861.000,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,";
        let line = format!("${body}*{:02X}", checksum(body));
        assert!(matches!(
            parse_sentence(&line),
            Err(NmeaError::InvalidField {
                field: "latitude",
                ..
            })
        ));
    }

    #[test]
    fn rejects_invalid_hemisphere() {
        let body = "GPGGA,123519,4807.038,X,01131.000,E,1,08,0.9,545.4,M,46.9,M,,";
        let line = format!("${body}*{:02X}", checksum(body));
        assert!(parse_sentence(&line).is_err());
    }

    #[test]
    fn southern_western_hemispheres_are_negative() {
        let body = "GPGGA,123519,4807.038,S,01131.000,W,1,08,0.9,545.4,M,46.9,M,,";
        let line = format!("${body}*{:02X}", checksum(body));
        let Sentence::Gga(g) = parse_sentence(&line).unwrap() else {
            panic!("not GGA");
        };
        assert!(g.lat_deg.unwrap() < 0.0);
        assert!(g.lon_deg.unwrap() < 0.0);
    }

    #[test]
    fn trailing_newline_is_tolerated() {
        let line = format!("{GGA}\r\n");
        assert!(parse_sentence(&line).is_ok());
    }

    #[test]
    fn rejects_non_finite_numbers() {
        for (body, field) in [
            (
                "GPGGA,123519,4807.038,N,01131.000,E,1,08,NaN,545.4,M,46.9,M,,",
                "hdop",
            ),
            (
                "GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,inf,M,46.9,M,,",
                "altitude",
            ),
            (
                "GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,1e400,M,,",
                "geoid separation",
            ),
            (
                "GPGGA,123519,infinity07.0,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,",
                "latitude",
            ),
            (
                "GPGGA,123519,4807.038,N,011NaN,E,1,08,0.9,545.4,M,46.9,M,,",
                "longitude",
            ),
            (
                "GPGGA,123519.5e400,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,",
                "time",
            ),
            (
                "GPRMC,123519,A,4807.038,N,01131.000,E,-inf,084.4,230394,003.1,W",
                "speed",
            ),
            ("GPGSA,A,3,04,05,,09,12,,,24,,,,,2.5,NAN,2.1", "hdop"),
            ("GPVTG,054.7,T,034.4,M,Infinity,N,010.2,K", "speed knots"),
        ] {
            let line = format!("${body}*{:02X}", checksum(body));
            match parse_sentence(&line) {
                Err(NmeaError::InvalidField { field: f, .. }) => assert_eq!(f, field, "{body}"),
                other => panic!("{body}: expected an invalid {field} field, got {other:?}"),
            }
        }
    }

    #[test]
    fn fractional_seconds_parse() {
        let t = parse_time("123519.75").unwrap();
        assert_eq!(t.millis, 750);
    }

    #[test]
    fn fraction_rounding_up_to_a_second_saturates_at_999_ms() {
        let body = "GPGGA,123519.9996,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,";
        let line = format!("${body}*{:02X}", checksum(body));
        let Sentence::Gga(g) = parse_sentence(&line).unwrap() else {
            panic!("not GGA");
        };
        assert_eq!(g.time, NmeaTime::new(12, 35, 19, 999));
        assert_eq!(g.time.to_string(), "12:35:19.999");

        // Encode -> parse keeps the time: the encoder writes `.999`,
        // not `.1000` (which would read back as 100 ms).
        let encoded = Sentence::Gga(g.clone()).to_nmea_string();
        assert!(encoded.contains(",123519.999,"), "{encoded}");
        let Sentence::Gga(back) = parse_sentence(&encoded).unwrap() else {
            panic!("not GGA");
        };
        assert_eq!(back.time, g.time);
    }

    mod fuzz {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// The parser must never panic, whatever bytes arrive off the
            /// wire — it returns a structured error instead.
            #[test]
            fn parse_never_panics(input in ".{0,120}") {
                let _ = parse_sentence(&input);
            }

            /// Valid framing with arbitrary field garbage parses to
            /// Ok(...) or a field error, never a panic.
            #[test]
            fn framed_garbage_never_panics(body in "[A-Z]{5}(,[-0-9A-Za-z.]{0,12}){0,20}") {
                let line = format!("${body}*{:02X}", checksum(&body));
                let _ = parse_sentence(&line);
            }

            /// Checksum verification agrees with manual recomputation.
            #[test]
            fn checksum_round_trip(body in "[ -)+-~]{0,60}") {
                // (excludes '*' so the body has no checksum delimiter)
                let line = format!("${body}*{:02X}", checksum(&body));
                prop_assert_eq!(verify_checksum(&line).unwrap(), body.as_str());
            }
        }
    }
}
