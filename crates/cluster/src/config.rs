//! Static cluster configuration: this node's identity plus its peers,
//! exactly as passed on the command line.

use std::net::SocketAddr;
use std::time::Duration;

/// One remote fleet member: a stable id and the address its protocol
/// port listens on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Peer {
    /// Stable member id, the unit of ring membership.
    pub id: String,
    /// Protocol (not admin) listening address of the peer.
    pub addr: SocketAddr,
}

/// Static cluster configuration of one node. Every node of a fleet is
/// started with the same member set (itself under `--node-id`, the
/// others under `--peers`), so all nodes compute the same ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// This node's member id.
    pub node_id: String,
    /// The *other* members of the fleet; the ring is `node_id` + these.
    pub peers: Vec<Peer>,
    /// Replicas per key beyond the owner.
    pub replicas: usize,
    /// Cadence of warm-key gossip rounds.
    pub gossip_interval: Duration,
    /// How long `/readyz` may report `warming` before the node serves
    /// anyway; the gossip pre-warm gate gives up at this deadline.
    pub warm_timeout: Duration,
}

impl ClusterConfig {
    /// A configuration with default timings: gossip every 2 s, 10 s warm
    /// budget, 1 replica. The peer-call budgets are not configuration:
    /// the server fixes them (1 s per fetch or gossip call, 30 s per
    /// forwarded characterization).
    pub fn new(node_id: impl Into<String>, peers: Vec<Peer>) -> ClusterConfig {
        ClusterConfig {
            node_id: node_id.into(),
            peers,
            replicas: 1,
            gossip_interval: Duration::from_millis(2000),
            warm_timeout: Duration::from_millis(10_000),
        }
    }

    /// All member ids of the fleet: this node plus every peer.
    pub fn member_ids(&self) -> Vec<String> {
        let mut ids = vec![self.node_id.clone()];
        ids.extend(self.peers.iter().map(|p| p.id.clone()));
        ids
    }

    /// Look up a peer by member id (`None` for `node_id` itself).
    pub fn peer(&self, id: &str) -> Option<&Peer> {
        self.peers.iter().find(|p| p.id == id)
    }

    /// Reject configurations no fleet can agree on.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found: empty or
    /// malformed node id, duplicate member ids, a peer claiming this
    /// node's id, or a zero gossip interval.
    pub fn validate(&self) -> Result<(), String> {
        validate_id(&self.node_id)?;
        for peer in &self.peers {
            validate_id(&peer.id)?;
            if peer.id == self.node_id {
                return Err(format!(
                    "peer `{}` has the same id as this node; list only the other members",
                    peer.id
                ));
            }
        }
        for (i, peer) in self.peers.iter().enumerate() {
            if self.peers[..i].iter().any(|p| p.id == peer.id) {
                return Err(format!("duplicate peer id `{}`", peer.id));
            }
        }
        if self.gossip_interval.is_zero() {
            return Err("gossip interval must be positive".to_string());
        }
        Ok(())
    }
}

fn validate_id(id: &str) -> Result<(), String> {
    if id.is_empty() {
        return Err("member id must not be empty".to_string());
    }
    if id
        .chars()
        .any(|c| c.is_whitespace() || c == '=' || c == ',')
    {
        return Err(format!(
            "member id `{id}` must not contain whitespace, `=` or `,`"
        ));
    }
    Ok(())
}

/// Parse a `--peers` value: comma-separated `id=host:port` entries, e.g.
/// `node2=127.0.0.1:7002,node3=127.0.0.1:7003`. Addresses must be
/// numeric socket addresses (no name resolution happens here).
///
/// # Errors
///
/// A human-readable description of the first malformed entry.
pub fn parse_peers(raw: &str) -> Result<Vec<Peer>, String> {
    let mut peers = Vec::new();
    for entry in raw.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let Some((id, addr)) = entry.split_once('=') else {
            return Err(format!("peer `{entry}` is not of the form id=host:port"));
        };
        let addr: SocketAddr = addr.trim().parse().map_err(|e| {
            format!(
                "peer `{id}` has an unparseable address `{}`: {e}",
                addr.trim()
            )
        })?;
        peers.push(Peer {
            id: id.trim().to_string(),
            addr,
        });
    }
    if peers.is_empty() {
        return Err("peer list is empty".to_string());
    }
    Ok(peers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_lists_parse_and_validate() {
        let peers = parse_peers("node2=127.0.0.1:7002, node3=127.0.0.1:7003").unwrap();
        assert_eq!(peers.len(), 2);
        assert_eq!(peers[0].id, "node2");
        assert_eq!(peers[1].addr.port(), 7003);
        let config = ClusterConfig::new("node1", peers);
        config.validate().unwrap();
        assert_eq!(
            config.member_ids(),
            vec![
                "node1".to_string(),
                "node2".to_string(),
                "node3".to_string()
            ]
        );
        assert_eq!(config.peer("node3").unwrap().addr.port(), 7003);
        assert!(config.peer("node1").is_none());
    }

    #[test]
    fn malformed_peer_lists_are_rejected() {
        for (raw, needle) in [
            ("node2", "id=host:port"),
            ("node2=localhost:7002", "unparseable address"),
            ("node2=127.0.0.1", "unparseable address"),
            ("", "empty"),
        ] {
            let err = parse_peers(raw).unwrap_err();
            assert!(err.contains(needle), "{raw:?}: {err}");
        }
    }

    #[test]
    fn nonsense_configurations_are_rejected() {
        let peer = |id: &str, port: u16| Peer {
            id: id.to_string(),
            addr: format!("127.0.0.1:{port}").parse().unwrap(),
        };
        let cases = [
            (ClusterConfig::new("", vec![peer("b", 1)]), "empty"),
            (ClusterConfig::new("a b", vec![peer("b", 1)]), "whitespace"),
            (
                ClusterConfig::new("a", vec![peer("a", 1)]),
                "same id as this node",
            ),
            (
                ClusterConfig::new("a", vec![peer("b", 1), peer("b", 2)]),
                "duplicate",
            ),
            (
                ClusterConfig {
                    gossip_interval: Duration::ZERO,
                    ..ClusterConfig::new("a", vec![peer("b", 1)])
                },
                "gossip interval",
            ),
        ];
        for (config, needle) in cases {
            let err = config.validate().unwrap_err();
            assert!(err.contains(needle), "{config:?}: {err}");
        }
        ClusterConfig::new("a", vec![]).validate().unwrap();
    }
}
