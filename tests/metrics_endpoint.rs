//! Observability end to end: drive the full stack — HTTP discovery,
//! binding, plan-cached marshaling, sender/receiver messaging — then
//! scrape the server's built-in `/metrics` route and check that every
//! subsystem's counters and the per-stage duration histograms made it
//! into one Prometheus exposition (and its `/metrics.json` twin).

use std::collections::HashSet;
use std::net::TcpListener;

use openmeta_ohttp::{http_get, ConnectionPool, ServerConfig, Url};
use openmeta_pbio::server::{FormatServer, FormatServerClient};
use xmit::{HttpServer, MachineModel, Xmit, XmitReceiver, XmitSender};

const XSD: &str = "http://www.w3.org/2001/XMLSchema";

fn metadata() -> String {
    format!(
        r#"<xsd:complexType name="Reading" xmlns:xsd="{XSD}">
             <xsd:element name="seq" type="xsd:unsignedLong" />
             <xsd:element name="level" type="xsd:double" />
           </xsd:complexType>"#
    )
}

/// Minimal exposition-format check: every non-comment line is
/// `name{labels} value`, every `# TYPE` family is one of the known
/// kinds, and histogram `_count`/`_sum`/`_bucket` lines belong to a
/// declared histogram family.
fn parse_exposition(body: &str) -> Vec<(String, f64)> {
    let mut families: HashSet<String> = HashSet::new();
    let mut samples = Vec::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let family = parts.next().expect("family name");
            let kind = parts.next().expect("family kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown TYPE kind in {line:?}"
            );
            families.insert(family.to_string());
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment {line:?}");
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line {line:?}"));
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("bad value in {line:?}"));
        let name = series.split('{').next().unwrap();
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        assert!(
            families.contains(name) || families.contains(base),
            "sample {name} has no # TYPE declaration"
        );
        samples.push((series.to_string(), value));
    }
    samples
}

fn value_of(samples: &[(String, f64)], series: &str) -> Option<f64> {
    samples.iter().find(|(s, _)| s == series).map(|(_, v)| *v)
}

#[test]
fn metrics_endpoint_exposes_every_subsystem() {
    let server = HttpServer::start().unwrap();
    server.put_xml("/formats/reading.xsd", metadata());
    let doc_url = server.url_for("/formats/reading.xsd");

    // Discovery twice through the keep-alive pool path (Xmit's standard
    // source), so the schema cache registers a revalidation.
    let toolkit = Xmit::new(MachineModel::native());
    toolkit.load_url(&doc_url).unwrap();
    toolkit.load_url(&doc_url).unwrap();
    let token = toolkit.bind("Reading").unwrap();
    // A second toolkit loads the same body: a hit in the process-wide
    // parse memo.
    Xmit::new(MachineModel::native()).load_url(&doc_url).unwrap();

    // Format-server clients: the second reuses the connection the first
    // left in the pool; after a restart at the same address the pooled
    // connection is dead and the third client connects afresh.
    let format_server = FormatServer::start().unwrap();
    let format_addr = format_server.addr();
    for _ in 0..2 {
        FormatServerClient::connect(format_addr).register(&token.format).unwrap();
    }
    drop(format_server);
    let format_server =
        FormatServer::start_on(format_addr.port(), ServerConfig::default()).unwrap();
    FormatServerClient::connect(format_addr).register(&token.format).unwrap();
    drop(format_server);

    // Marshal enough records for a plan-cache hit, and ship them over a
    // sender/receiver pair so the transport spans fire.
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let registry = toolkit.registry().clone();
    let rx_thread = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut rx = XmitReceiver::new(stream, registry);
        let mut got = 0;
        while let Some(rec) = rx.recv().unwrap() {
            assert_eq!(rec.get_f64("level").unwrap(), 4.25);
            got += 1;
        }
        got
    });
    let mut tx = XmitSender::connect(addr).unwrap();
    for seq in 0..3u64 {
        let mut rec = token.new_record();
        rec.set_u64("seq", seq).unwrap();
        rec.set_f64("level", 4.25).unwrap();
        tx.send(&rec).unwrap();
    }
    drop(tx);
    assert_eq!(rx_thread.join().unwrap(), 3);

    // Also touch the pool directly so reuse counters are non-trivial.
    let pool = ConnectionPool::default();
    let parsed = Url::parse(&doc_url).unwrap();
    pool.get(&parsed).unwrap();
    pool.get(&parsed).unwrap();

    // Scrape.
    let metrics_url = Url::parse(&server.url_for("/metrics")).unwrap();
    let resp = http_get(&metrics_url).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.content_type.as_deref(), Some("text/plain; version=0.0.4"));
    let body = String::from_utf8(resp.body).unwrap();
    let samples = parse_exposition(&body);

    // Every migrated subsystem shows up in one scrape: plan cache,
    // schema cache and parse memo, connection pools, transport, HTTP
    // server.
    for series in [
        "openmeta_plan_cache_hits_total",
        "openmeta_plan_cache_misses_total",
        "openmeta_schema_cache_misses_total",
        "openmeta_schema_parse_memo_hits_total",
        "openmeta_schema_parse_memo_misses_total",
        "openmeta_format_client_connects_total",
        "openmeta_format_client_reuses_total",
        "openmeta_format_client_dead_on_checkout_total",
        "openmeta_pool_requests_total",
        "openmeta_pool_reuses_total",
        "openmeta_transport_accepted_total",
        "openmeta_transport_frames_in_total",
        "openmeta_http_requests_total",
    ] {
        let v = value_of(&samples, series)
            .unwrap_or_else(|| panic!("{series} missing from scrape:\n{body}"));
        assert!(v >= 1.0, "{series} = {v}\n{body}");
    }
    // The second load revalidated (304) or hit the cache.
    let warm = value_of(&samples, "openmeta_schema_cache_revalidated_total").unwrap_or(0.0)
        + value_of(&samples, "openmeta_schema_cache_fresh_hits_total").unwrap_or(0.0)
        + value_of(&samples, "openmeta_schema_cache_content_hits_total").unwrap_or(0.0);
    assert!(warm >= 1.0, "no warm schema-cache path recorded\n{body}");

    // Per-stage duration histograms for the paper's pipeline decomposition.
    for stage in [
        "discovery.load",
        "discovery.fetch",
        "discovery.parse",
        "binding.bind",
        "marshal.encode",
        "marshal.decode",
        "transport.send",
        "transport.recv",
    ] {
        let series = format!("openmeta_stage_duration_ns_count{{stage=\"{stage}\"}}");
        let v = value_of(&samples, &series)
            .unwrap_or_else(|| panic!("stage {stage} missing from scrape:\n{body}"));
        assert!(v >= 1.0, "{series} = {v}");
    }

    // JSON twin: same registry, machine-readable shape.
    let json_url = Url::parse(&server.url_for("/metrics.json")).unwrap();
    let resp = http_get(&json_url).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.content_type.as_deref(), Some("application/json"));
    let json = String::from_utf8(resp.body).unwrap();
    for key in ["\"counters\"", "\"gauges\"", "\"histograms\"", "openmeta_plan_cache_hits_total"] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
}
