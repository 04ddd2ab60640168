//! The `server_micro` workload and the server-layer probe: clients of a
//! release `serve` process submitting small jobs and streaming them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hh_server::client::Client;
use hh_server::json::job_spec_to_json;
use hyperhammer::JobSpec;

/// One job a client submitted and streamed to the end.
#[derive(Debug, Clone)]
pub struct JobSample {
    /// Which of the run's distinct specs the job ran.
    pub spec: usize,
    /// Submit until the last NDJSON line arrived.
    pub latency: Duration,
    /// Submit until the server reported the job no longer queued; only
    /// measured when the loop polls status.
    pub queue_wait: Option<Duration>,
    /// The streamed bytes, or the error that ended the job.
    pub stream: Result<Vec<u8>, String>,
}

/// Submits `spec_json`, optionally polls status until the job leaves
/// the queue, then streams it to the end.
fn one_job(client: &Client, spec: usize, spec_json: &str, poll_queue: bool) -> JobSample {
    let start = Instant::now();
    let mut queue_wait = None;
    let stream = (|| {
        let id = client.submit(spec_json)?;
        if poll_queue {
            while client.status(id)?.contains("\"status\": \"queued\"") {
                std::thread::sleep(Duration::from_micros(100));
            }
            queue_wait = Some(start.elapsed());
        }
        let mut out = Vec::new();
        client.stream(id, &mut out)?;
        Ok(out)
    })();
    JobSample {
        spec,
        latency: start.elapsed(),
        queue_wait,
        stream,
    }
}

/// A closed loop: `clients` threads each submit the next job (cycling
/// through `specs`) as soon as their previous one finished, until
/// `until` passes or each has run `max_jobs`. Returns the samples in
/// completion order and the loop's wall time.
pub fn closed_loop(
    addr: &str,
    specs: &[JobSpec],
    clients: usize,
    until: Instant,
    max_jobs: Option<u64>,
    poll_queue: bool,
) -> (Vec<JobSample>, Duration) {
    let bodies: Vec<String> = specs.iter().map(job_spec_to_json).collect();
    let next = AtomicU64::new(0);
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let client = Client::new(addr);
                let mut done = 0;
                while Instant::now() < until && max_jobs.is_none_or(|m| done < m) {
                    let k = (next.fetch_add(1, Ordering::Relaxed) % bodies.len() as u64) as usize;
                    let sample = one_job(&client, k, &bodies[k], poll_queue);
                    samples.lock().expect("sample list poisoned").push(sample);
                    done += 1;
                }
            });
        }
    });
    let wall = start.elapsed();
    (samples.into_inner().expect("sample list poisoned"), wall)
}

/// A counter's value from the server's `GET /metrics` body.
pub fn metrics_counter(body: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\": ");
    let rest = &body[body.find(&key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
