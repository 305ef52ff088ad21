//! Seeded input generation. Everything here runs before any timing
//! starts; the system under test only ever sees the rendered NMEA lines.

use std::sync::{Arc, Mutex};

use perpos_core::component::{ComponentCtx, ComponentDescriptor};
use perpos_core::prelude::*;
use perpos_geo::{LocalFrame, Point2, Wgs84};
use perpos_sensors::{GpsEnvironment, GpsSimulator, Trajectory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The anchor frame of every workload (the demo building's origin).
pub fn frame() -> LocalFrame {
    LocalFrame::new(Wgs84::new(56.17, 10.19, 0.0).expect("valid anchor"))
}

/// Why a line will not reach the Interpreter: malformed on purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// Rejected by the block lexer (`scan_block`).
    Lexer,
    /// Lexically valid, rejected by the Parser (too few fields).
    Parser,
}

/// One rendered trace line with its provenance.
#[derive(Debug, Clone)]
pub struct Line {
    pub text: String,
    /// Receiver sample time the line was rendered at.
    pub epoch: u64,
    /// Ground truth of the walker at that sample, in the local frame.
    pub truth: Point2,
    pub defect: Option<Defect>,
}

/// Records every raw sentence the simulated receiver emits.
struct Capture(Arc<Mutex<Vec<(String, SimTime)>>>);

impl Component for Capture {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::sink("capture", InputSpec::new("raw", vec![kinds::RAW_STRING]))
    }
    fn on_input(
        &mut self,
        _port: usize,
        item: DataItem,
        ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        let text = item.payload.as_text().unwrap_or_default().to_string();
        self.0
            .lock()
            .expect("capture lock is never poisoned")
            .push((text, ctx.now()));
        Ok(())
    }
}

/// Renders `sessions` receiver sessions of `epochs` one-second samples
/// each, back to back along `walk`, from an urban [`GpsSimulator`]
/// seeded per session. Output includes the receiver's invalid (no-fix)
/// sentences and dropouts. A fresh receiver per session bounds the
/// simulator's low-satellite drift, which otherwise random-walks for the
/// whole trace and would make accuracy a lottery over seeds.
pub fn render_urban(walk: &Trajectory, sessions: u64, epochs: u64, seed: u64) -> Vec<Line> {
    let mut lines = Vec::new();
    for session in 0..sessions {
        let sink = Arc::new(Mutex::new(Vec::new()));
        let mut mw = Middleware::new();
        let gps = mw.add_component(
            GpsSimulator::new("GPS", frame(), walk.clone())
                .with_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ session)
                .with_environment(GpsEnvironment::urban()),
        );
        let cap = mw.add_component(Capture(Arc::clone(&sink)));
        mw.connect(gps, cap, 0).expect("gps -> capture");
        mw.advance_clock(SimDuration::from_secs(session * epochs));
        mw.step_batch(epochs, SimDuration::from_secs(1))
            .expect("trace rendering cannot fail");
        let raw = std::mem::take(&mut *sink.lock().expect("capture lock is never poisoned"));
        lines.extend(raw.into_iter().map(|(text, at)| Line {
            epoch: at.since(SimTime::ZERO).as_micros() / 1_000_000,
            truth: walk.position_at(at),
            text,
            defect: None,
        }));
    }
    lines
}

fn checksum(body: &str) -> u8 {
    body.bytes().fold(0, |acc, b| acc ^ b)
}

/// Corrupts a seeded share of `lines` in the ways real captures break:
/// `lexer_rate` of them so the block lexer must reject them (bad
/// checksum, missing `$`, truncated checksum, non-ASCII byte) and
/// `parser_rate` of them into checksummed GGA stubs the Parser must
/// reject.
pub fn corrupt(lines: &mut [Line], seed: u64, lexer_rate: f64, parser_rate: f64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0_22u64);
    for line in lines.iter_mut() {
        let roll: f64 = rng.gen();
        if roll < lexer_rate {
            let star = line
                .text
                .rfind('*')
                .expect("rendered lines carry a checksum");
            line.text = match rng.gen_range(0..4u32) {
                0 => {
                    // Flip one body byte: the checksum no longer matches.
                    let mut bytes = line.text.clone().into_bytes();
                    let at = rng.gen_range(1..star);
                    bytes[at] = if bytes[at] == b'7' { b'8' } else { b'7' };
                    String::from_utf8(bytes).expect("ASCII stays ASCII")
                }
                1 => line.text[1..].to_string(),
                2 => line.text[..line.text.len() - 1].to_string(),
                _ => {
                    let mut t = line.text.clone();
                    t.insert(star / 2, '\u{b0}');
                    t
                }
            };
            line.defect = Some(Defect::Lexer);
        } else if roll < lexer_rate + parser_rate {
            let body = "GPGGA,000000.00";
            line.text = format!("${body}*{:02X}", checksum(body));
            line.defect = Some(Defect::Parser);
        }
    }
}

/// Joins lines into one newline-terminated block of text.
pub fn block(lines: &[Line]) -> String {
    let mut text = String::new();
    for line in lines {
        text.push_str(&line.text);
        text.push('\n');
    }
    text
}

/// Whether `text` is a GGA sentence (the only kind that yields a fix).
pub fn is_gga(text: &str) -> bool {
    text.starts_with("$GPGGA")
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpos_sensors::codec::scan_block;

    fn walk() -> Trajectory {
        Trajectory::new(vec![Point2::new(0.0, 0.0), Point2::new(100.0, 0.0)], 1.4).looping()
    }

    #[test]
    fn rendering_is_seed_deterministic() {
        let a = render_urban(&walk(), 2, 100, 7);
        let b = render_urban(&walk(), 2, 100, 7);
        let c = render_urban(&walk(), 2, 100, 8);
        let text = |v: &[Line]| v.iter().map(|l| l.text.clone()).collect::<Vec<_>>();
        assert_eq!(text(&a), text(&b));
        assert_ne!(text(&a), text(&c));
        assert!(a.len() > 200, "GGA + RMC per fixed epoch");
    }

    #[test]
    fn lexer_defects_are_exactly_what_scan_block_rejects() {
        let mut lines = render_urban(&walk(), 20, 100, 3);
        corrupt(&mut lines, 3, 0.02, 0.01);
        let lexer = lines
            .iter()
            .filter(|l| l.defect == Some(Defect::Lexer))
            .count();
        assert!(lexer > 0);
        let mut skipped = 0;
        let texts: Vec<String> = lines.chunks(250).map(block).collect();
        let mut out = Vec::new();
        for block in &texts {
            skipped += scan_block(block, &mut out).skipped;
        }
        assert_eq!(skipped, lexer);
    }
}
