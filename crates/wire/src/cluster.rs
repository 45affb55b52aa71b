//! A loopback cluster of TCP daemons sharing one partitioning rule with
//! the in-process [`Cluster`].
//!
//! [`WireCluster::launch`] takes the same [`ClusterBuilder`] a channel
//! cluster takes, partitions the directory with
//! [`ClusterBuilder::into_parts`] (so TCP and in-process deployments can
//! never partition differently, and both routers take the builder's
//! parallelism degree and planner), then gives every server its own
//! [`WireServer`] on an ephemeral loopback port. A shared [`Router`]
//! over [`SocketTransport`] provides distributed evaluation; each
//! daemon also answers full `Query` frames by running that router
//! itself, shipping its remote atomic sub-queries over real sockets.
//!
//! [`Cluster`]: netdir_server::Cluster

use crate::client::{ClientOptions, WireClient};
use crate::codec::{WireRequest, WireResponse};
use crate::server::{ServerOptions, WireServer, WireService};
use crate::socket::SocketTransport;
use crossbeam::channel::{unbounded, Sender};
use netdir_model::{Directory, Entry};
use netdir_obs::{Clock, MetricsRegistry, MonotonicClock};
use netdir_pager::record::Record;
use netdir_pager::Pager;
use netdir_query::parse_query;
use netdir_query::{Query, QueryError, QueryResult};
use netdir_server::delegation::ServerId;
use netdir_server::metrics as bridge;
use netdir_server::node::Request;
use netdir_server::{
    BreakerConfig, ClusterBuilder, ConsistencyMode, FaultConfig, FaultStats, FaultTransport,
    NetStats, QueryOutcome, RetryPolicy, RetryStats, Router, ServerNode,
};
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};

/// Encode entries the way they live on pages (and on the channel wire).
pub fn encode_entries(entries: &[Entry]) -> Vec<Vec<u8>> {
    entries
        .iter()
        .map(|e| {
            let mut buf = Vec::new();
            e.encode(&mut buf);
            buf
        })
        .collect()
}

/// The per-daemon service: local store over a channel, full queries via
/// the shared router.
struct NodeService {
    /// Request channel into this daemon's own [`ServerNode`].
    sender: Sender<Request>,
    /// This daemon's server id (default `home` for queries).
    home: ServerId,
    /// Server names, indexed by id, for `Query { home }` resolution.
    names: Arc<Vec<String>>,
    /// Distributed evaluator over socket transport; set once all
    /// listeners are bound (requests racing launch get a clean error).
    router: Arc<OnceLock<Router>>,
    /// Cluster-wide metrics, served by `Stats` frames.
    metrics: MetricsRegistry,
    /// Fault-injection counters, set at launch when a [`FaultPlan`] is
    /// active (same race rules as `router`).
    fault: Arc<OnceLock<FaultStats>>,
    /// Time source for query-latency metrics.
    clock: Arc<dyn Clock>,
}

impl NodeService {
    fn local(
        &self,
        build: impl FnOnce(Sender<Result<Vec<Vec<u8>>, String>>) -> Request,
    ) -> WireResponse {
        let (reply, rx) = unbounded();
        if self.sender.send(build(reply)).is_err() {
            return WireResponse::Error("server node is gone".into());
        }
        match rx.recv() {
            Ok(Ok(encoded)) => WireResponse::Entries(encoded),
            Ok(Err(e)) => WireResponse::Error(e),
            Err(e) => WireResponse::Error(format!("server node reply lost: {e}")),
        }
    }

    /// Resolve a `Query` frame's `home` field (empty = this daemon).
    fn resolve_home(&self, home: &str) -> Result<ServerId, WireResponse> {
        if home.is_empty() {
            return Ok(self.home);
        }
        self.names
            .iter()
            .position(|n| n == home)
            .ok_or_else(|| WireResponse::Error(format!("no such server: {home}")))
    }

    /// Feed one finished query into the cluster metrics: the scratch
    /// pager's whole ledger is this query's I/O (each query gets a
    /// fresh pager).
    fn observe_query(&self, pager: &Pager, elapsed_nanos: u64) {
        let io = pager.io();
        bridge::absorb_io(&self.metrics, io);
        bridge::absorb_pool(&self.metrics, pager.pool().metrics());
        bridge::record_query(&self.metrics, elapsed_nanos, io.total());
    }

    /// Answer a full distributed query under `mode`. A partial outcome
    /// with nothing skipped answers as a plain `Entries` frame, so a
    /// healthy cluster's traffic is indistinguishable from strict mode.
    fn distributed(&self, home: &str, text: &str, mode: ConsistencyMode) -> WireResponse {
        let Some(router) = self.router.get() else {
            return WireResponse::Error("cluster still launching".into());
        };
        let home_id = match self.resolve_home(home) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        let query = match parse_query(text) {
            Ok(q) => q,
            Err(e) => return WireResponse::Error(format!("bad query: {e}")),
        };
        let pager = netdir_pager::default_pager();
        let started = self.clock.now();
        match router.query_with(home_id, &pager, &query, mode) {
            Ok(outcome) => {
                let elapsed = u64::try_from(
                    self.clock.now().saturating_sub(started).as_nanos(),
                )
                .unwrap_or(u64::MAX);
                self.observe_query(&pager, elapsed);
                if outcome.is_complete() {
                    WireResponse::Entries(encode_entries(&outcome.entries))
                } else {
                    WireResponse::Partial {
                        entries: encode_entries(&outcome.entries),
                        skipped: outcome.partial,
                    }
                }
            }
            Err(e) => WireResponse::Error(e.to_string()),
        }
    }

    /// Answer a `QueryAnalyze` frame: strict distributed evaluation
    /// plus the per-operator trace.
    fn analyzed(&self, home: &str, text: &str) -> WireResponse {
        let Some(router) = self.router.get() else {
            return WireResponse::Error("cluster still launching".into());
        };
        let home_id = match self.resolve_home(home) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        let query = match parse_query(text) {
            Ok(q) => q,
            Err(e) => return WireResponse::Error(format!("bad query: {e}")),
        };
        let pager = netdir_pager::default_pager();
        match router.query_analyzed(home_id, &pager, &query, ConsistencyMode::Strict) {
            Ok((outcome, trace)) => {
                self.observe_query(&pager, trace.elapsed_nanos);
                WireResponse::Analyzed {
                    entries: encode_entries(&outcome.entries),
                    trace,
                }
            }
            Err(e) => WireResponse::Error(e.to_string()),
        }
    }

    /// Answer a `Stats` frame: refresh the registry from every live
    /// subsystem, then render the Prometheus exposition.
    fn stats(&self) -> WireResponse {
        if let Some(router) = self.router.get() {
            bridge::sync_net(&self.metrics, router.net().snapshot());
            bridge::sync_retry(&self.metrics, router.retry_stats().snapshot());
            bridge::sync_health(&self.metrics, router.health().transitions());
        }
        if let Some(fault) = self.fault.get() {
            bridge::sync_fault(&self.metrics, fault.snapshot());
        }
        WireResponse::Stats(self.metrics.render_prometheus())
    }
}

impl WireService for NodeService {
    fn handle(&self, req: WireRequest) -> WireResponse {
        match req {
            WireRequest::Ping | WireRequest::Shutdown => WireResponse::Pong,
            WireRequest::Atomic { base, scope, filter } => self.local(|reply| {
                Request::Atomic {
                    base,
                    scope,
                    filter,
                    reply,
                }
            }),
            WireRequest::Ldap { base, scope, filter } => self.local(|reply| {
                Request::Ldap {
                    base,
                    scope,
                    filter,
                    reply,
                }
            }),
            WireRequest::Query { home, text } => {
                self.distributed(&home, &text, ConsistencyMode::Strict)
            }
            WireRequest::QueryPartial { home, text } => {
                self.distributed(&home, &text, ConsistencyMode::Partial)
            }
            WireRequest::QueryAnalyze { home, text } => self.analyzed(&home, &text),
            WireRequest::Stats => self.stats(),
            // The loopback cluster's nodes are bulk-loaded read replicas;
            // the single-daemon `netdird` owns the write path.
            WireRequest::Mutate { .. } => {
                WireResponse::Error("this node is read-only; mutate the primary daemon".into())
            }
        }
    }
}

/// Fault-tolerance knobs for [`WireCluster::launch_with_faults`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Deterministic fault injection wrapped around the socket
    /// transport (above the TCP clients, so injected faults never race
    /// real sockets and a fixed seed replays bit-identically).
    pub faults: FaultConfig,
    /// Zone-fetch retry policy for the shared router.
    pub retry: RetryPolicy,
    /// Per-server circuit-breaker configuration.
    pub breaker: BreakerConfig,
}

/// A running cluster of loopback TCP daemons.
pub struct WireCluster {
    names: Arc<Vec<String>>,
    addrs: Vec<SocketAddr>,
    router: Arc<OnceLock<Router>>,
    servers: Vec<WireServer>,
    /// Keeps the store threads alive for the daemons' lifetime.
    _nodes: Vec<ServerNode>,
    orphaned: usize,
    client_opts: ClientOptions,
    /// Fault-injection counters, when launched with a [`FaultPlan`].
    fault_stats: Option<FaultStats>,
    /// Cluster-wide metrics registry (shared with every daemon's
    /// service; served by `Stats` frames).
    metrics: MetricsRegistry,
}

impl WireCluster {
    /// Partition `dir` across the builder's declared contexts and start
    /// one TCP daemon per server on `127.0.0.1:0`.
    pub fn launch(
        builder: ClusterBuilder,
        dir: &Directory,
        server_opts: ServerOptions,
        client_opts: ClientOptions,
    ) -> io::Result<WireCluster> {
        WireCluster::launch_inner(builder, dir, server_opts, client_opts, None)
    }

    /// Like [`WireCluster::launch`], but with deterministic fault
    /// injection between the router and the sockets, plus explicit
    /// retry/breaker configuration — the chaos-test entry point.
    pub fn launch_with_faults(
        builder: ClusterBuilder,
        dir: &Directory,
        server_opts: ServerOptions,
        client_opts: ClientOptions,
        plan: FaultPlan,
    ) -> io::Result<WireCluster> {
        WireCluster::launch_inner(builder, dir, server_opts, client_opts, Some(plan))
    }

    fn launch_inner(
        builder: ClusterBuilder,
        dir: &Directory,
        server_opts: ServerOptions,
        client_opts: ClientOptions,
        plan: Option<FaultPlan>,
    ) -> io::Result<WireCluster> {
        let parts = builder.into_parts(dir);
        let names: Arc<Vec<String>> =
            Arc::new(parts.configs.iter().map(|c| c.name.clone()).collect());
        let nodes: Vec<ServerNode> = parts
            .configs
            .into_iter()
            .zip(parts.partitions)
            .map(|(cfg, entries)| ServerNode::spawn(cfg, entries))
            .collect();
        let router: Arc<OnceLock<Router>> = Arc::new(OnceLock::new());
        let metrics = MetricsRegistry::default();
        bridge::register_all(&metrics);
        let fault_slot: Arc<OnceLock<FaultStats>> = Arc::new(OnceLock::new());
        let mut servers = Vec::with_capacity(nodes.len());
        let mut addrs = Vec::with_capacity(nodes.len());
        for (id, node) in nodes.iter().enumerate() {
            let service = Arc::new(NodeService {
                sender: node.sender(),
                home: id,
                names: names.clone(),
                router: router.clone(),
                metrics: metrics.clone(),
                fault: fault_slot.clone(),
                clock: Arc::new(MonotonicClock::new()),
            });
            let server = WireServer::bind("127.0.0.1:0", service, server_opts.clone())?;
            addrs.push(server.local_addr());
            servers.push(server);
        }
        let transport = SocketTransport::connect(&addrs, client_opts.clone());
        let (fault_stats, mut shared_router) = match plan {
            None => (None, Router::new(parts.delegation, Box::new(transport))),
            Some(plan) => {
                let fault = FaultTransport::new(Box::new(transport), plan.faults);
                let stats = fault.stats();
                let r = Router::new(parts.delegation, Box::new(fault))
                    .with_retry(plan.retry)
                    .with_breaker(plan.breaker);
                (Some(stats), r)
            }
        };
        shared_router = shared_router.with_eval_threads(parts.eval_threads);
        if let Some(p) = parts.planner {
            shared_router = shared_router.with_planner(p);
        }
        let _ = router.set(shared_router);
        if let Some(stats) = &fault_stats {
            let _ = fault_slot.set(stats.clone());
        }
        Ok(WireCluster {
            names,
            addrs,
            router,
            servers,
            _nodes: nodes,
            orphaned: parts.orphaned,
            client_opts,
            fault_stats,
            metrics,
        })
    }

    /// Launch with default server/client options.
    pub fn launch_default(builder: ClusterBuilder, dir: &Directory) -> io::Result<WireCluster> {
        WireCluster::launch(
            builder,
            dir,
            ServerOptions::default(),
            ClientOptions::default(),
        )
    }

    /// The shared distributed evaluator (delegation + transport +
    /// health + retry accounting).
    pub fn router(&self) -> &Router {
        self.router.get().expect("router is set before launch returns")
    }

    /// Fault-injection counters (present when launched with a
    /// [`FaultPlan`]).
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.fault_stats.as_ref()
    }

    /// The cluster-wide metrics registry (what `Stats` frames serve).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Zone-fetch retry counters of the shared router.
    pub fn retry_stats(&self) -> &RetryStats {
        self.router().retry_stats()
    }

    /// Number of daemons.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Server id by name.
    pub fn server_id(&self, name: &str) -> Option<ServerId> {
        self.names.iter().position(|n| n == name)
    }

    /// The loopback address server `id` listens on.
    pub fn addr(&self, id: ServerId) -> SocketAddr {
        self.addrs[id]
    }

    /// All daemon addresses, indexed by server id.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Entries that matched no context at partition time.
    pub fn orphaned(&self) -> usize {
        self.orphaned
    }

    /// Cluster-wide network counters: real frame bytes shipped between
    /// daemons by distributed evaluation.
    pub fn net(&self) -> &NetStats {
        self.router().net()
    }

    /// A fresh pooled client for daemon `id` (an external caller's view
    /// of the cluster).
    pub fn client(&self, id: ServerId) -> WireClient {
        WireClient::connect(self.addrs[id], self.client_opts.clone())
    }

    /// Evaluate `query` as posed to server `home` (by name), shipping
    /// remote sub-queries over the loopback sockets.
    pub fn query_from(
        &self,
        home: &str,
        pager: &netdir_pager::Pager,
        query: &Query,
    ) -> QueryResult<Vec<Entry>> {
        Ok(self
            .query_from_with(home, pager, query, ConsistencyMode::Strict)?
            .entries)
    }

    /// Like [`WireCluster::query_from`], but under an explicit
    /// [`ConsistencyMode`] — `Partial` skips and reports unreachable
    /// zones instead of failing the query.
    pub fn query_from_with(
        &self,
        home: &str,
        pager: &netdir_pager::Pager,
        query: &Query,
        mode: ConsistencyMode,
    ) -> QueryResult<QueryOutcome> {
        let home = self.server_id(home).ok_or_else(|| QueryError::Parse {
            input: home.into(),
            detail: "no such server".into(),
        })?;
        self.router().query_with(home, pager, query, mode)
    }

    /// Like [`WireCluster::query_from`], but also returns the
    /// per-operator [`netdir_obs::QueryTrace`] of the evaluation.
    pub fn query_analyzed_from(
        &self,
        home: &str,
        pager: &netdir_pager::Pager,
        query: &Query,
        mode: ConsistencyMode,
    ) -> QueryResult<(QueryOutcome, netdir_obs::QueryTrace)> {
        let home = self.server_id(home).ok_or_else(|| QueryError::Parse {
            input: home.into(),
            detail: "no such server".into(),
        })?;
        self.router().query_analyzed(home, pager, query, mode)
    }

    /// Stop every daemon gracefully.
    pub fn shutdown(&mut self) {
        for server in &mut self.servers {
            server.shutdown();
        }
    }
}

impl Drop for WireCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
