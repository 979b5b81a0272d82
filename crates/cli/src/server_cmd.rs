//! `hdpm server` — the networked serving front end over
//! [`hdpm_server::Server`].
//!
//! Binds a TCP listener (default `127.0.0.1:0`, printing the resolved
//! address to stderr), serves the same JSON-lines protocol as
//! `hdpm serve`, and drains gracefully when stdin closes or reads a
//! `shutdown` line — pure-std process control, no signal handling. The
//! drain report is printed to stderr and, with `--manifest <file>`,
//! written as JSON next to a telemetry run manifest.

use std::io::BufRead;
use std::time::Duration;

use hdpm_cluster::ClusterConfig;
use hdpm_server::{Server, ServerConfig};
use hdpm_telemetry as telemetry;

use crate::args::ParsedArgs;
use crate::serve::{engine_options_from, fidelity_floor_from, ENGINE_OPTIONS};

const SERVER_OPTIONS: &[&str] = &[
    "addr",
    "admin-addr",
    "workers",
    "reactors",
    "queue-depth",
    "deadline-ms",
    "idle-timeout-ms",
    "write-timeout-ms",
    "max-conns",
    "manifest",
    "tracing",
    "slow-ms",
    "trace-capacity",
    "node-id",
    "peers",
    "replicas",
    "gossip-ms",
    "warm-timeout-ms",
];

/// Run the TCP server until stdin closes or says `shutdown`.
pub fn cmd_server(args: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let options = options_from(args)?;
    let stdin = std::io::stdin();
    run(options, args, stdin.lock())
}

/// Parse a validated [`ServerConfig`] from argv. Engine flags are shared
/// with `hdpm serve`; the rest shape the service itself. Invalid
/// combinations surface here as flag errors, before anything binds.
fn options_from(args: &ParsedArgs) -> Result<ServerConfig, Box<dyn std::error::Error>> {
    crate::reject_unknown_options(
        args,
        ENGINE_OPTIONS,
        SERVER_OPTIONS,
        "stdio serving is `hdpm serve`",
    )?;
    let defaults = ServerConfig::default();
    let addr = args
        .option("addr")
        .unwrap_or("127.0.0.1:0")
        .parse()
        .map_err(|_| "--addr must be an ip:port socket address")?;
    let admin_addr = args
        .option("admin-addr")
        .map(|raw| {
            raw.parse()
                .map_err(|_| "--admin-addr must be an ip:port socket address")
        })
        .transpose()?;
    let tracing = match args.option("tracing").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => return Err(format!("--tracing must be on or off, not `{other}`").into()),
    };
    // --deadline-ms 0 disables the per-request deadline entirely.
    let deadline = match args.get_or("deadline-ms", 30_000u64)? {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    let mut builder = ServerConfig::builder()
        .addr(addr)
        .workers(args.get_or("workers", defaults.workers)?)
        .reactors(args.get_or("reactors", defaults.reactors)?)
        .queue_depth(args.get_or("queue-depth", defaults.queue_depth)?)
        .idle_timeout(Duration::from_millis(args.get_or(
            "idle-timeout-ms",
            defaults.idle_timeout.as_millis() as u64,
        )?))
        .write_timeout(Duration::from_millis(args.get_or(
            "write-timeout-ms",
            defaults.write_timeout.as_millis() as u64,
        )?))
        .max_connections(args.get_or("max-conns", defaults.max_connections)?)
        .engine(engine_options_from(args)?)
        .fidelity_floor(fidelity_floor_from(args)?)
        .tracing(tracing)
        .slow_threshold(Duration::from_millis(
            args.get_or("slow-ms", defaults.slow_threshold.as_millis() as u64)?,
        ));
    builder = match deadline {
        Some(deadline) => builder.deadline(deadline),
        None => builder.no_deadline(),
    };
    if let Some(admin_addr) = admin_addr {
        builder = builder.admin_addr(admin_addr);
    }
    if let Some(cluster) = cluster_from(args)? {
        builder = builder.cluster(cluster);
    }
    Ok(builder.build()?)
}

/// Parse the cluster flags into a [`ClusterConfig`], or `None` when the
/// server runs standalone. `--node-id` and `--peers` come as a pair:
/// every fleet member is started with its own id and the *other*
/// members' id=addr entries, so all nodes derive the same ring.
fn cluster_from(args: &ParsedArgs) -> Result<Option<ClusterConfig>, Box<dyn std::error::Error>> {
    let node_id = args.option("node-id");
    let peers = args.option("peers");
    let (node_id, peers) = match (node_id, peers) {
        (None, None) => return Ok(None),
        (Some(node_id), Some(peers)) => (node_id, peers),
        (Some(_), None) => return Err("--node-id requires --peers (the other members)".into()),
        (None, Some(_)) => return Err("--peers requires --node-id (this node's id)".into()),
    };
    let peers = hdpm_cluster::parse_peers(peers).map_err(|e| format!("--peers: {e}"))?;
    let mut cluster = ClusterConfig::new(node_id, peers);
    cluster.replicas = args.get_or("replicas", cluster.replicas)?;
    cluster.gossip_interval = Duration::from_millis(
        args.get_or("gossip-ms", cluster.gossip_interval.as_millis() as u64)?,
    );
    cluster.warm_timeout = Duration::from_millis(
        args.get_or("warm-timeout-ms", cluster.warm_timeout.as_millis() as u64)?,
    );
    Ok(Some(cluster))
}

/// Start, block on the control stream, drain. Generic over the control
/// stream so tests can drive shutdown in memory.
fn run<R: BufRead>(
    options: ServerConfig,
    args: &ParsedArgs,
    control: R,
) -> Result<(), Box<dyn std::error::Error>> {
    let _span = telemetry::span("cli.server");
    let workers = hdpm_core::resolve_threads(options.workers);
    let queue_depth = options.queue_depth;
    let deadline = options.deadline;
    let tracing = options.tracing;
    // Size the flight recorder before the first trace lands in it.
    hdpm_telemetry::trace::configure_recorder(args.get_or(
        "trace-capacity",
        hdpm_telemetry::trace::DEFAULT_RECORDER_CAPACITY,
    )?);
    if tracing {
        // Crash dump: a panic on any thread flushes the flight recorder
        // to stderr before the default hook reports the panic.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            eprintln!(
                "hdpm server: panic, dumping flight recorder: {}",
                hdpm_server::flight_recorder_json().trim_end()
            );
            default_hook(info);
        }));
    }
    let server = Server::start(options)?;
    // One line with everything an operator (or a port-scraping script)
    // needs: both resolved addresses and the effective pool/queue shape.
    eprintln!(
        "hdpm server: listening on {} (admin {}, {workers} workers, queue depth {queue_depth}, \
         deadline {}, tracing {}); send `shutdown` or close stdin to drain",
        server.local_addr(),
        server
            .admin_addr()
            .map_or_else(|| "off".to_string(), |a| a.to_string()),
        deadline.map_or_else(|| "off".to_string(), |d| format!("{} ms", d.as_millis())),
        if tracing { "on" } else { "off" },
    );
    for line in control.lines() {
        let line = line?;
        match line.trim() {
            "" => {}
            "shutdown" => break,
            other => eprintln!("hdpm server: unknown control command `{other}` (try `shutdown`)"),
        }
    }
    eprintln!("hdpm server: draining...");
    let report = server.shutdown();
    eprintln!(
        "hdpm server: drained ({} connections, {} ok, {} errors, {} shed, {} timeouts)",
        report.connections, report.ok, report.errors, report.shed, report.timeouts
    );
    if tracing {
        // Drain dump: the final state of the flight recorder, one JSON
        // line on stderr, same shape as /tracez.
        eprintln!(
            "hdpm server: flight recorder: {}",
            hdpm_server::flight_recorder_json().trim_end()
        );
    }
    if let Some(path) = args.option("manifest") {
        std::fs::write(path, serde_json::to_string_pretty(&report)?)?;
        eprintln!("drain report written to {path}");
        crate::write_manifest("server", None, args, path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpStream;

    fn parse(tokens: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn options_parse_with_defaults_and_overrides() {
        let args = parse(&[
            "server",
            "--workers",
            "3",
            "--queue-depth",
            "9",
            "--deadline-ms",
            "0",
            "--patterns",
            "1500",
        ]);
        let options = options_from(&args).unwrap();
        assert_eq!(options.workers, 3);
        assert_eq!(options.queue_depth, 9);
        assert_eq!(options.deadline, None);
        assert_eq!(options.engine.config.max_patterns, 1500);
        assert_eq!(options.addr.port(), 0, "ephemeral port by default");
    }

    #[test]
    fn cluster_flags_parse_as_a_pair_with_a_store() {
        let args = parse(&[
            "server",
            "--models",
            "/tmp/hdpm-models",
            "--node-id",
            "node1",
            "--peers",
            "node2=127.0.0.1:7002,node3=127.0.0.1:7003",
            "--replicas",
            "2",
            "--gossip-ms",
            "500",
            "--warm-timeout-ms",
            "4000",
        ]);
        let options = options_from(&args).unwrap();
        let cluster = options.cluster.expect("cluster configured");
        assert_eq!(cluster.node_id, "node1");
        assert_eq!(cluster.peers.len(), 2);
        assert_eq!(cluster.replicas, 2);
        assert_eq!(cluster.gossip_interval, Duration::from_millis(500));
        assert_eq!(cluster.warm_timeout, Duration::from_millis(4000));

        // Half a pair is a flag error, not a silent standalone server.
        let half = parse(&["server", "--node-id", "node1"]);
        let err = options_from(&half).unwrap_err().to_string();
        assert!(err.contains("--peers"), "{err}");
        let other_half = parse(&["server", "--peers", "node2=127.0.0.1:7002"]);
        let err = options_from(&other_half).unwrap_err().to_string();
        assert!(err.contains("--node-id"), "{err}");

        // Cluster mode without a disk store is rejected at build time.
        let no_store = parse(&[
            "server",
            "--node-id",
            "node1",
            "--peers",
            "node2=127.0.0.1:7002",
        ]);
        let err = options_from(&no_store).unwrap_err().to_string();
        assert!(err.contains("disk"), "{err}");
    }

    #[test]
    fn bad_addr_is_a_parse_error() {
        let args = parse(&["server", "--addr", "not-an-address"]);
        let err = options_from(&args).unwrap_err().to_string();
        assert!(err.contains("--addr"), "{err}");
    }

    #[test]
    fn serve_only_surface_is_rejected() {
        let args = parse(&["server", "--simulate"]);
        let err = options_from(&args).unwrap_err().to_string();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn server_round_trips_and_drains_cleanly() {
        let args = parse(&["server", "--patterns", "1500", "--shards", "4"]);
        let mut options = options_from(&args).unwrap();
        options.workers = 2;
        let server = Server::start(options).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"ok\":true"), "{reply}");
        let report = server.shutdown();
        assert_eq!(report.ok, 1);
    }

    #[test]
    fn run_drains_on_shutdown_line_and_writes_the_drain_report() {
        let path = std::env::temp_dir().join(format!("hdpm-drain-{}.json", std::process::id()));
        let args = parse(&[
            "server",
            "--patterns",
            "1500",
            "--shards",
            "4",
            "--manifest",
            path.to_str().unwrap(),
        ]);
        let options = options_from(&args).unwrap();
        run(options, &args, &b"noise\nshutdown\nignored\n"[..]).unwrap();
        let report = std::fs::read_to_string(&path).unwrap();
        assert!(report.contains("\"connections\""), "{report}");
        std::fs::remove_file(&path).ok();
    }
}
