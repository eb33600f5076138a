//! The toolkit facade: load documents, bind types, mint records.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use openmeta_obs::sync::{self, Mutex};
use openmeta_obs::{clock, Counter, MetricsRegistry};

use parking_lot::RwLock;

use openmeta_ohttp::{content_hash64, DocumentSource, Fetched, StandardSource, Url};
use openmeta_pbio::server::FormatServerClient;
use openmeta_pbio::{FormatDescriptor, FormatId, FormatRegistry, MachineModel, RawRecord};
use openmeta_schema::model::EnumType;
use openmeta_schema::{parse_str, ComplexType, TypeRef};

use crate::error::XmitError;
use crate::mapping::map_type_with_enums;

/// The result of binding a complex type: the paper's "binding token …
/// used directly with the chosen BCM to perform marshaling and
/// unmarshaling".
#[derive(Debug, Clone)]
pub struct BindingToken {
    /// The complex type this token binds.
    pub type_name: String,
    /// The generated native metadata, registered with the BCM.
    pub format: Arc<FormatDescriptor>,
}

impl BindingToken {
    /// The compact format identifier carried in message headers.
    pub fn id(&self) -> FormatId {
        self.format.id()
    }

    /// A zeroed record of this format.
    pub fn new_record(&self) -> RawRecord {
        RawRecord::new(self.format.clone())
    }
}

/// How a cached discovery request was satisfied.
///
/// Each variant carries the names of the complex types the document
/// defines.  Outcomes are per toolkit: only [`LoadOutcome::Loaded`]
/// needed a parse, which the process-wide parse memo shares between
/// toolkits that load the same body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadOutcome {
    /// Cache miss: the document was fetched, parsed (or its parse taken
    /// from the process-wide memo), and its definitions (re)applied.
    Loaded(Vec<String>),
    /// The server answered a conditional GET with `304 Not Modified`;
    /// the cached parse was re-applied without transferring the body.
    Revalidated(Vec<String>),
    /// A full body arrived whose bytes match a parse this toolkit
    /// already cached (same URL or any other), so it was re-applied.
    Unchanged(Vec<String>),
    /// The cached entry was inside the freshness TTL; no network traffic
    /// at all.
    Fresh(Vec<String>),
}

impl LoadOutcome {
    /// The type names the document defines, whichever way we got them.
    pub fn names(&self) -> &[String] {
        match self {
            LoadOutcome::Loaded(n)
            | LoadOutcome::Revalidated(n)
            | LoadOutcome::Unchanged(n)
            | LoadOutcome::Fresh(n) => n,
        }
    }

    /// Consume the outcome, keeping only the type names.
    pub fn into_names(self) -> Vec<String> {
        match self {
            LoadOutcome::Loaded(n)
            | LoadOutcome::Revalidated(n)
            | LoadOutcome::Unchanged(n)
            | LoadOutcome::Fresh(n) => n,
        }
    }

    /// Was this request answered from this toolkit's discovery cache?
    pub fn was_cache_hit(&self) -> bool {
        !matches!(self, LoadOutcome::Loaded(_))
    }
}

/// Snapshot of the discovery cache's effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchemaCacheStats {
    /// Loads satisfied inside the TTL without touching the network.
    pub fresh_hits: u64,
    /// Conditional GETs answered `304 Not Modified`.
    pub revalidated: u64,
    /// Full bodies whose content hash matched a cached parse.
    pub content_hits: u64,
    /// Documents new to this toolkit, which had to be fetched and parsed
    /// (the parse possibly shared through the process-wide memo).
    pub misses: u64,
}

impl SchemaCacheStats {
    /// Total cached-path loads (everything answered from this toolkit's
    /// cache).
    pub fn hits(&self) -> u64 {
        self.fresh_hits + self.revalidated + self.content_hits
    }
}

/// A parsed schema document and the text it was parsed from, shared
/// between the process-wide parse memo, the URL cache and the
/// content-hash index.  Keeping the text lets every content-hash match
/// be confirmed byte for byte.
struct ParsedDoc {
    text: String,
    types: Vec<ComplexType>,
    enums: Vec<EnumType>,
    names: Vec<String>,
}

fn parse_doc(text: &str) -> Result<ParsedDoc, XmitError> {
    let _span = openmeta_obs::span!("discovery.parse");
    let doc = parse_str(text)?;
    let names = doc.types.iter().map(|ct| ct.name.clone()).collect();
    Ok(ParsedDoc { text: text.to_owned(), types: doc.types, enums: doc.enums, names })
}

/// Source bytes the process-wide parse memo retains; beyond it the
/// oldest entries are evicted first.
const PARSE_MEMO_BYTES: usize = 4 << 20;

/// Process-wide memo of [`parse_doc`], which depends only on the
/// document text: every toolkit in the process that loads the same body
/// shares one parse.  Entries are keyed by content hash and every hit is
/// confirmed by comparing the text, because FNV-1a is not
/// collision-resistant and a crafted collision from one document server
/// must not stand in for another server's definitions.
struct ParseMemo {
    max_bytes: usize,
    state: Mutex<MemoState>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

#[derive(Default)]
struct MemoState {
    by_hash: HashMap<u64, Vec<Arc<ParsedDoc>>>,
    /// Every entry, oldest first.
    order: VecDeque<(u64, Arc<ParsedDoc>)>,
    /// Source bytes of every entry.
    bytes: usize,
}

impl ParseMemo {
    fn new(max_bytes: usize, metrics: &MetricsRegistry) -> ParseMemo {
        ParseMemo {
            max_bytes,
            state: Mutex::new(MemoState::default()),
            hits: metrics.counter("openmeta_schema_parse_memo_hits_total"),
            misses: metrics.counter("openmeta_schema_parse_memo_misses_total"),
        }
    }

    fn global() -> &'static ParseMemo {
        static MEMO: OnceLock<ParseMemo> = OnceLock::new();
        MEMO.get_or_init(|| ParseMemo::new(PARSE_MEMO_BYTES, MetricsRegistry::global()))
    }

    /// The parse of `text`, whose content hash is `hash`.
    fn get_or_parse(&self, hash: u64, text: &str) -> Result<Arc<ParsedDoc>, XmitError> {
        let hit = sync::lock(&self.state)
            .by_hash
            .get(&hash)
            .and_then(|docs| docs.iter().find(|d| d.text == text).cloned());
        if let Some(doc) = hit {
            self.hits.inc();
            return Ok(doc);
        }
        self.misses.inc();
        let doc = Arc::new(parse_doc(text)?);
        self.insert(hash, &doc);
        Ok(doc)
    }

    fn insert(&self, hash: u64, doc: &Arc<ParsedDoc>) {
        if doc.text.len() > self.max_bytes {
            return;
        }
        let mut guard = sync::lock(&self.state);
        let state = &mut *guard;
        let docs = state.by_hash.entry(hash).or_default();
        if docs.iter().any(|d| d.text == doc.text) {
            return; // a racing parse of the same text got here first
        }
        docs.push(doc.clone());
        state.order.push_back((hash, doc.clone()));
        state.bytes += doc.text.len();
        while state.bytes > self.max_bytes {
            let Some((old_hash, old)) = state.order.pop_front() else { break };
            state.bytes -= old.text.len();
            if let Some(docs) = state.by_hash.get_mut(&old_hash) {
                docs.retain(|d| !Arc::ptr_eq(d, &old));
                if docs.is_empty() {
                    state.by_hash.remove(&old_hash);
                }
            }
        }
    }
}

/// Per-URL cache entry: validator, content hash, and the parse itself.
struct SchemaCacheEntry {
    etag: Option<String>,
    hash: u64,
    doc: Arc<ParsedDoc>,
    fetched_at: Instant,
}

/// Global-registry-backed cache counters (`openmeta_schema_cache_*_total`):
/// this toolkit's exact numbers via [`Xmit::schema_cache_stats`],
/// process-wide sums via a `/metrics` scrape.
struct CacheCounters {
    fresh_hits: Arc<Counter>,
    revalidated: Arc<Counter>,
    content_hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl Default for CacheCounters {
    fn default() -> CacheCounters {
        let m = MetricsRegistry::global();
        CacheCounters {
            fresh_hits: m.counter("openmeta_schema_cache_fresh_hits_total"),
            revalidated: m.counter("openmeta_schema_cache_revalidated_total"),
            content_hits: m.counter("openmeta_schema_cache_content_hits_total"),
            misses: m.counter("openmeta_schema_cache_misses_total"),
        }
    }
}

/// The XMIT toolkit instance.
///
/// Holds loaded (but not yet bound) complex types, a PBIO format registry
/// for the selected machine model, and the document source used for
/// discovery.
pub struct Xmit {
    registry: Arc<FormatRegistry>,
    standard: Arc<StandardSource>,
    custom: Option<Arc<dyn DocumentSource>>,
    /// Loaded complex types, latest definition per name.
    types: RwLock<HashMap<String, ComplexType>>,
    /// Loaded enumerations, latest definition per name.
    enums: RwLock<HashMap<String, EnumType>>,
    /// URL → type names it defined at last load (for refresh bookkeeping).
    documents: RwLock<HashMap<String, Vec<String>>>,
    /// URL → cached parse with its HTTP validator and content hash.
    schema_cache: RwLock<HashMap<String, SchemaCacheEntry>>,
    /// Content hash → cached parse, deduplicating identical documents
    /// served from different URLs.
    content_index: RwLock<HashMap<u64, Arc<ParsedDoc>>>,
    /// Successfully bound formats by type name, so repeat binds are a
    /// lookup instead of a re-map + re-register.  Cleared whenever any
    /// type or enum definition actually changes (a changed dependency
    /// must invalidate every composition that embeds it).
    bound: RwLock<HashMap<String, Arc<FormatDescriptor>>>,
    /// Freshness window within which cached entries skip the network
    /// entirely.  `None` (the default) always revalidates.
    cache_ttl: RwLock<Option<Duration>>,
    cache_counters: CacheCounters,
    /// Optional format server for resolving unknown format ids on decode.
    format_server: RwLock<Option<FormatServerClient>>,
}

impl Xmit {
    /// A toolkit generating metadata for `machine`, with the standard
    /// document source (`http://`, `file://`, `mem://`).
    pub fn new(machine: MachineModel) -> Xmit {
        Xmit {
            registry: Arc::new(FormatRegistry::new(machine)),
            standard: Arc::new(StandardSource::new()),
            custom: None,
            types: RwLock::new(HashMap::new()),
            enums: RwLock::new(HashMap::new()),
            documents: RwLock::new(HashMap::new()),
            schema_cache: RwLock::new(HashMap::new()),
            content_index: RwLock::new(HashMap::new()),
            bound: RwLock::new(HashMap::new()),
            cache_ttl: RwLock::new(None),
            cache_counters: CacheCounters::default(),
            format_server: RwLock::new(None),
        }
    }

    /// A toolkit with a caller-provided document source.
    pub fn with_source(machine: MachineModel, source: Arc<dyn DocumentSource>) -> Xmit {
        Xmit { custom: Some(source), ..Xmit::new(machine) }
    }

    /// The BCM format registry (shared with receivers for decoding).
    pub fn registry(&self) -> &Arc<FormatRegistry> {
        &self.registry
    }

    /// The standard source, e.g. to publish `mem://` fixtures in tests.
    pub fn source(&self) -> &StandardSource {
        &self.standard
    }

    fn fetch(&self, url: &Url) -> Result<String, XmitError> {
        match &self.custom {
            Some(s) => Ok(s.fetch(url)?),
            None => Ok(self.standard.fetch(url)?),
        }
    }

    fn fetch_conditional(&self, url: &Url, etag: Option<&str>) -> Result<Fetched, XmitError> {
        match &self.custom {
            Some(s) => Ok(s.fetch_conditional(url, etag)?),
            None => Ok(self.standard.fetch_conditional(url, etag)?),
        }
    }

    /// Fetch a document's text through the toolkit's source without
    /// loading it (used by [`crate::watcher::FormatWatcher`] to detect
    /// changes).
    pub fn fetch_document(&self, url: &Url) -> Result<String, XmitError> {
        self.fetch(url)
    }

    /// Set the freshness window for the discovery cache.  Within `ttl` of
    /// the last successful fetch, [`Xmit::load_url`] answers from cache
    /// without any network traffic; `None` (the default) revalidates on
    /// every load.
    pub fn set_cache_ttl(&self, ttl: Option<Duration>) {
        *self.cache_ttl.write() = ttl;
    }

    /// Discovery-cache counters since construction (or the last reset).
    pub fn schema_cache_stats(&self) -> SchemaCacheStats {
        SchemaCacheStats {
            fresh_hits: self.cache_counters.fresh_hits.get(),
            revalidated: self.cache_counters.revalidated.get(),
            content_hits: self.cache_counters.content_hits.get(),
            misses: self.cache_counters.misses.get(),
        }
    }

    /// Zero the discovery-cache counters (the cache itself is kept).
    pub fn reset_schema_cache_stats(&self) {
        self.cache_counters.fresh_hits.reset();
        self.cache_counters.revalidated.reset();
        self.cache_counters.content_hits.reset();
        self.cache_counters.misses.reset();
    }

    /// "Load the toolkit with message definitions (contained in XML
    /// documents) from one or more URLs."  Returns the names of the
    /// complex types the document defined.
    pub fn load_url(&self, url: &str) -> Result<Vec<String>, XmitError> {
        Ok(self.load_url_cached(url)?.into_names())
    }

    /// Like [`Xmit::load_url`], but reports how the request was satisfied:
    /// full parse, `304` revalidation, content-hash dedupe, or TTL-fresh.
    pub fn load_url_cached(&self, url: &str) -> Result<LoadOutcome, XmitError> {
        self.load_url_inner(url, true)
    }

    /// Force revalidation of a previously loaded URL, ignoring the TTL.
    /// Used by [`crate::watcher::FormatWatcher`] so polling stays a
    /// conditional GET even when a freshness window is configured.
    pub fn revalidate(&self, url: &str) -> Result<LoadOutcome, XmitError> {
        self.load_url_inner(url, false)
    }

    fn load_url_inner(&self, url: &str, allow_fresh: bool) -> Result<LoadOutcome, XmitError> {
        let _span = openmeta_obs::span!("discovery.load");
        let parsed = Url::parse(url)?;

        // TTL-fresh: answer from cache with no network traffic at all.
        if allow_fresh {
            if let Some(ttl) = *self.cache_ttl.read() {
                if let Some(doc) = self.schema_cache.read().get(url).and_then(|entry| {
                    (entry.fetched_at.elapsed() <= ttl).then(|| entry.doc.clone())
                }) {
                    self.apply_doc(&doc, url);
                    self.cache_counters.fresh_hits.inc();
                    return Ok(LoadOutcome::Fresh(doc.names.clone()));
                }
            }
        }

        let etag = self.schema_cache.read().get(url).and_then(|e| e.etag.clone());
        let fetched = {
            let _span = openmeta_obs::span!("discovery.fetch");
            self.fetch_conditional(&parsed, etag.as_deref())?
        };
        match fetched {
            Fetched::NotModified => {
                let doc = {
                    let mut cache = self.schema_cache.write();
                    let entry = cache.get_mut(url).ok_or_else(|| {
                        XmitError::Discovery(openmeta_ohttp::HttpError::BadResponse(
                            "304 Not Modified for a URL never cached".to_string(),
                        ))
                    })?;
                    entry.fetched_at = clock::now();
                    entry.doc.clone()
                };
                self.apply_doc(&doc, url);
                self.cache_counters.revalidated.inc();
                Ok(LoadOutcome::Revalidated(doc.names.clone()))
            }
            Fetched::New { text, etag: new_etag } => {
                let hash = content_hash64(text.as_bytes());
                self.load_body(url, &text, new_etag, hash)
            }
        }
    }

    /// Load a freshly fetched body whose content hash is `hash`.  Every
    /// hash match, in this toolkit's caches and in the process-wide
    /// parse memo, is confirmed by comparing the text.
    fn load_body(
        &self,
        url: &str,
        text: &str,
        etag: Option<String>,
        hash: u64,
    ) -> Result<LoadOutcome, XmitError> {
        // Dedupe against this URL's previous body or any other URL that
        // served identical bytes.
        let cached = self
            .schema_cache
            .read()
            .get(url)
            .filter(|e| e.hash == hash && e.doc.text == text)
            .map(|e| e.doc.clone())
            .or_else(|| self.content_index.read().get(&hash).filter(|d| d.text == text).cloned());
        if let Some(doc) = cached {
            self.store_entry(url, etag, hash, doc.clone());
            self.apply_doc(&doc, url);
            self.cache_counters.content_hits.inc();
            return Ok(LoadOutcome::Unchanged(doc.names.clone()));
        }
        // New to this toolkit, so the outcome is a miss even when another
        // toolkit already parsed the same body.
        let doc = ParseMemo::global().get_or_parse(hash, text)?;
        self.store_entry(url, etag, hash, doc.clone());
        self.content_index.write().insert(hash, doc.clone());
        self.apply_doc(&doc, url);
        self.cache_counters.misses.inc();
        Ok(LoadOutcome::Loaded(doc.names.clone()))
    }

    /// (Re-)apply a parsed document's definitions.  Cache hits go through
    /// here too: the `types`/`enums` maps hold the *latest* definition per
    /// name, and a cached load must win over whatever another document
    /// installed since.
    fn apply_doc(&self, doc: &ParsedDoc, url: &str) {
        let mut changed = false;
        {
            let mut types = self.types.write();
            for ct in &doc.types {
                if types.get(&ct.name) != Some(ct) {
                    types.insert(ct.name.clone(), ct.clone());
                    changed = true;
                }
            }
        }
        {
            let mut enums = self.enums.write();
            for en in &doc.enums {
                if enums.get(&en.name) != Some(en) {
                    enums.insert(en.name.clone(), en.clone());
                    changed = true;
                }
            }
        }
        if changed {
            self.bound.write().clear();
        }
        self.documents.write().insert(url.to_string(), doc.names.clone());
    }

    fn store_entry(&self, url: &str, etag: Option<String>, hash: u64, doc: Arc<ParsedDoc>) {
        self.schema_cache.write().insert(
            url.to_string(),
            SchemaCacheEntry { etag, hash, doc, fetched_at: clock::now() },
        );
    }

    /// Load definitions from already-fetched XML text.  This always
    /// parses: the process-wide parse memo serves URL loads only, so the
    /// paper's registration measurement (Figures 3 and 6), which times
    /// this path, pays a real parse every time.
    pub fn load_str(&self, text: &str) -> Result<Vec<String>, XmitError> {
        let mut changed = false;
        let doc = parse_str(text)?;
        let mut names = Vec::with_capacity(doc.types.len());
        {
            let mut types = self.types.write();
            for ct in doc.types {
                names.push(ct.name.clone());
                if types.get(&ct.name) != Some(&ct) {
                    types.insert(ct.name.clone(), ct);
                    changed = true;
                }
            }
        }
        {
            let mut enums = self.enums.write();
            for en in doc.enums {
                if enums.get(&en.name) != Some(&en) {
                    enums.insert(en.name.clone(), en);
                    changed = true;
                }
            }
        }
        if changed {
            self.bound.write().clear();
        }
        Ok(names)
    }

    /// Re-fetch a previously loaded URL, picking up centralized format
    /// changes.  Returns the (possibly changed) type names.
    pub fn refresh(&self, url: &str) -> Result<Vec<String>, XmitError> {
        Ok(self.revalidate(url)?.into_names())
    }

    /// Names of all loaded complex types, sorted.
    pub fn loaded_types(&self) -> Vec<String> {
        let mut v: Vec<String> = self.types.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Look at a loaded (unbound) definition.
    pub fn definition(&self, name: &str) -> Option<ComplexType> {
        self.types.read().get(name).cloned()
    }

    /// Look at a loaded enumeration definition.
    pub fn enumeration(&self, name: &str) -> Option<EnumType> {
        self.enums.read().get(name).cloned()
    }

    /// Wire value of an enumeration symbol (its declaration index).
    pub fn enum_index(&self, enum_name: &str, symbol: &str) -> Result<u64, XmitError> {
        let en = self
            .enumeration(enum_name)
            .ok_or_else(|| XmitError::UnknownType(enum_name.to_string()))?;
        en.index_of(symbol).map(|i| i as u64).ok_or_else(|| {
            XmitError::Binding(format!("'{symbol}' is not a value of enumeration '{enum_name}'"))
        })
    }

    /// Symbol behind a wire value of an enumeration.
    pub fn enum_symbol(&self, enum_name: &str, index: u64) -> Result<String, XmitError> {
        let en = self
            .enumeration(enum_name)
            .ok_or_else(|| XmitError::UnknownType(enum_name.to_string()))?;
        en.symbol(index as usize).map(str::to_string).ok_or_else(|| {
            XmitError::Binding(format!("enumeration '{enum_name}' has no value {index}"))
        })
    }

    /// Bind a loaded complex type: generate PBIO metadata (recursively
    /// binding composed types first) and register it.
    pub fn bind(&self, name: &str) -> Result<BindingToken, XmitError> {
        let _span = openmeta_obs::span!("binding.bind");
        let mut visiting = Vec::new();
        let format = self.bind_inner(name, &mut visiting)?;
        Ok(BindingToken { type_name: name.to_string(), format })
    }

    fn bind_inner(
        &self,
        name: &str,
        visiting: &mut Vec<String>,
    ) -> Result<Arc<FormatDescriptor>, XmitError> {
        if let Some(fmt) = self.bound.read().get(name).cloned() {
            return Ok(fmt);
        }
        if visiting.iter().any(|v| v == name) {
            return Err(XmitError::Binding(format!(
                "circular composition: {} -> {name}",
                visiting.join(" -> ")
            )));
        }
        let ct = self
            .types
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| XmitError::UnknownType(name.to_string()))?;
        visiting.push(name.to_string());
        // Bind composed types first so registry resolution succeeds;
        // enumeration references map to a scalar and need no binding.
        for e in &ct.elements {
            if let TypeRef::Named(n) = &e.type_ref {
                if self.enums.read().contains_key(n) {
                    continue;
                }
                self.bind_inner(n, visiting)?;
            }
        }
        visiting.pop();
        let enums = self.enums.read();
        let spec = map_type_with_enums(&ct, &self.registry.machine(), &|n| enums.contains_key(n))?;
        drop(enums);
        let format = self.registry.register(spec)?;
        self.bound.write().insert(name.to_string(), format.clone());
        Ok(format)
    }

    /// Bind every loaded type; returns tokens sorted by type name.
    pub fn bind_all(&self) -> Result<Vec<BindingToken>, XmitError> {
        self.loaded_types().into_iter().map(|n| self.bind(&n)).collect()
    }

    /// One-call convenience: bind `name` and mint a record of it.
    pub fn new_record(&self, name: &str) -> Result<RawRecord, XmitError> {
        Ok(self.bind(name)?.new_record())
    }

    // -- format-server integration (the Figure 2 arrow: "format
    // identifiers … allow component programs to retrieve the metadata on
    // demand") ---------------------------------------------------------

    /// Attach the format server decode should resolve unknown ids from.
    pub fn attach_format_server(&self, addr: std::net::SocketAddr) {
        *self.format_server.write() = Some(FormatServerClient::connect(addr));
    }

    /// Publish a bound format's descriptor to the attached server so
    /// remote components can resolve it by id.
    pub fn publish_format(&self, token: &BindingToken) -> Result<FormatId, XmitError> {
        let guard = self.format_server.read();
        let client = guard
            .as_ref()
            .ok_or_else(|| XmitError::Binding("no format server attached".to_string()))?;
        Ok(client.register(&token.format)?)
    }

    /// Decode a wire buffer, fetching the sender's descriptor from the
    /// attached format server if this toolkit has never seen its id.
    pub fn decode_resolving(&self, wire: &[u8]) -> Result<RawRecord, XmitError> {
        let header = openmeta_pbio::marshal::parse_header(wire)?;
        if self.registry.lookup_id(header.format_id).is_none() {
            let guard = self.format_server.read();
            let client = guard.as_ref().ok_or(XmitError::Bcm(
                openmeta_pbio::PbioError::UnknownFormatId(header.format_id.0),
            ))?;
            client.resolve_into(header.format_id, &self.registry)?;
        }
        Ok(openmeta_pbio::decode(wire, &self.registry)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmeta_ohttp::HttpServer;
    use openmeta_pbio::{decode, encode};

    const XSD: &str = "http://www.w3.org/2001/XMLSchema";

    fn join_request_xml() -> String {
        format!(
            r#"<xsd:complexType name="JoinRequest" xmlns:xsd="{XSD}">
                 <xsd:element name="name" type="xsd:string" />
                 <xsd:element name="server" type="xsd:unsignedLong" />
                 <xsd:element name="ip_addr" type="xsd:unsignedLong" />
                 <xsd:element name="pid" type="xsd:unsignedLong" />
                 <xsd:element name="ds_addr" type="xsd:unsignedLong" />
               </xsd:complexType>"#
        )
    }

    #[test]
    fn load_bind_marshal_from_mem() {
        let xmit = Xmit::new(MachineModel::native());
        xmit.source().put_mem("join", join_request_xml());
        let names = xmit.load_url("mem://join").unwrap();
        assert_eq!(names, vec!["JoinRequest"]);
        let token = xmit.bind("JoinRequest").unwrap();
        let mut rec = token.new_record();
        rec.set_string("name", "flow2d").unwrap();
        rec.set_u64("server", 7).unwrap();
        let wire = encode(&rec).unwrap();
        let back = decode(&wire, xmit.registry()).unwrap();
        assert_eq!(back.get_string("name").unwrap(), "flow2d");
        assert_eq!(back.get_u64("server").unwrap(), 7);
    }

    #[test]
    fn remote_discovery_over_http() {
        let server = HttpServer::start().unwrap();
        server.put_xml("/formats/join.xsd", join_request_xml());
        let xmit = Xmit::new(MachineModel::native());
        let names = xmit.load_url(&server.url_for("/formats/join.xsd")).unwrap();
        assert_eq!(names, vec!["JoinRequest"]);
        assert!(xmit.bind("JoinRequest").is_ok());
        assert_eq!(server.hit_count(), 1);
    }

    #[test]
    fn sparc32_join_request_is_20_bytes() {
        // The paper's Figure 6 reports JoinRequest as a 20-byte structure.
        let xmit = Xmit::new(MachineModel::SPARC32);
        xmit.load_str(&join_request_xml()).unwrap();
        let token = xmit.bind("JoinRequest").unwrap();
        assert_eq!(token.format.record_size, 20);
    }

    #[test]
    fn unknown_type_and_bad_urls_error() {
        let xmit = Xmit::new(MachineModel::native());
        assert!(matches!(xmit.bind("Nope"), Err(XmitError::UnknownType(_))));
        assert!(matches!(xmit.load_url("mem://absent"), Err(XmitError::Discovery(_))));
        assert!(matches!(xmit.load_url("not a url"), Err(XmitError::Discovery(_))));
        assert!(matches!(xmit.load_str("<a/>"), Err(XmitError::Schema(_))));
    }

    #[test]
    fn format_change_via_reload() {
        let server = HttpServer::start().unwrap();
        let v1 = format!(
            r#"<xsd:complexType name="Evt" xmlns:xsd="{XSD}">
                 <xsd:element name="a" type="xsd:int" /></xsd:complexType>"#
        );
        let v2 = format!(
            r#"<xsd:complexType name="Evt" xmlns:xsd="{XSD}">
                 <xsd:element name="a" type="xsd:int" />
                 <xsd:element name="b" type="xsd:double" /></xsd:complexType>"#
        );
        server.put_xml("/evt.xsd", v1);
        let xmit = Xmit::new(MachineModel::native());
        let url = server.url_for("/evt.xsd");
        xmit.load_url(&url).unwrap();
        let t1 = xmit.bind("Evt").unwrap();
        // The format evolves centrally; the component just refreshes.
        server.put_xml("/evt.xsd", v2);
        xmit.refresh(&url).unwrap();
        let t2 = xmit.bind("Evt").unwrap();
        assert_ne!(t1.id(), t2.id());
        assert_eq!(t2.format.fields.len(), 2);
        // Both versions stay addressable for in-flight messages.
        assert!(xmit.registry().lookup_id(t1.id()).is_some());
    }

    #[test]
    fn composition_binds_dependencies() {
        let xmit = Xmit::new(MachineModel::native());
        xmit.load_str(&format!(
            r#"<xsd:schema xmlns:xsd="{XSD}">
                 <xsd:complexType name="Msg">
                   <xsd:element name="hdr" type="Hdr" />
                   <xsd:element name="v" type="xsd:double" />
                 </xsd:complexType>
                 <xsd:complexType name="Hdr">
                   <xsd:element name="seq" type="xsd:int" />
                 </xsd:complexType>
               </xsd:schema>"#
        ))
        .unwrap();
        // Binding Msg first works even though Hdr appears later in the doc.
        let token = xmit.bind("Msg").unwrap();
        assert!(token.format.field_path("hdr.seq").is_some());
        assert_eq!(xmit.bind_all().unwrap().len(), 2);
    }

    #[test]
    fn circular_composition_rejected() {
        let xmit = Xmit::new(MachineModel::native());
        xmit.load_str(&format!(
            r#"<xsd:schema xmlns:xsd="{XSD}">
                 <xsd:complexType name="A"><xsd:element name="b" type="B" /></xsd:complexType>
                 <xsd:complexType name="B"><xsd:element name="a" type="A" /></xsd:complexType>
               </xsd:schema>"#
        ))
        .unwrap();
        assert!(matches!(xmit.bind("A"), Err(XmitError::Binding(_))));
    }

    #[test]
    fn missing_composed_type_reported() {
        let xmit = Xmit::new(MachineModel::native());
        xmit.load_str(&format!(
            r#"<xsd:complexType name="A" xmlns:xsd="{XSD}">
                 <xsd:element name="q" type="Mystery" /></xsd:complexType>"#
        ))
        .unwrap();
        assert!(matches!(xmit.bind("A"), Err(XmitError::UnknownType(_))));
    }

    #[test]
    fn dependency_change_invalidates_composed_binding() {
        let xmit = Xmit::new(MachineModel::native());
        let doc = |hdr_fields: &str| {
            format!(
                r#"<xsd:schema xmlns:xsd="{XSD}">
                     <xsd:complexType name="Msg">
                       <xsd:element name="hdr" type="Hdr" />
                     </xsd:complexType>
                     <xsd:complexType name="Hdr">
                       <xsd:element name="seq" type="xsd:int" />{hdr_fields}
                     </xsd:complexType>
                   </xsd:schema>"#
            )
        };
        xmit.load_str(&doc("")).unwrap();
        let t1 = xmit.bind("Msg").unwrap();
        // Msg's own definition is untouched, but its dependency grows; the
        // bound-token cache must not serve the stale composition.
        xmit.load_str(&doc(r#"<xsd:element name="flags" type="xsd:int" />"#)).unwrap();
        let t2 = xmit.bind("Msg").unwrap();
        assert_ne!(t1.id(), t2.id(), "changed dependency must re-bind the composition");
        assert!(t2.format.field_path("hdr.flags").is_some());
    }

    fn one_type_doc(name: &str) -> String {
        format!(
            r#"<xsd:complexType name="{name}" xmlns:xsd="{XSD}">
                 <xsd:element name="a" type="xsd:int" /></xsd:complexType>"#
        )
    }

    #[test]
    fn parse_memo_confirms_hash_hits_by_bytes() {
        let metrics = MetricsRegistry::new();
        let memo = ParseMemo::new(1 << 20, &metrics);
        let (a, b) = (one_type_doc("MemoA"), one_type_doc("MemoB"));
        // Both texts claim the same hash: two distinct, correct parses.
        let pa = memo.get_or_parse(7, &a).unwrap();
        let pb = memo.get_or_parse(7, &b).unwrap();
        assert_eq!(pa.names, vec!["MemoA"]);
        assert_eq!(pb.names, vec!["MemoB"]);
        // A byte-identical body is a hit on the shared parse.
        assert!(Arc::ptr_eq(&pa, &memo.get_or_parse(7, &a).unwrap()));
        assert!(Arc::ptr_eq(&pb, &memo.get_or_parse(7, &b).unwrap()));
        let snap = metrics.snapshot();
        assert_eq!(snap.counter_value("openmeta_schema_parse_memo_misses_total"), Some(2));
        assert_eq!(snap.counter_value("openmeta_schema_parse_memo_hits_total"), Some(2));
        // Parse errors are reported, not memoized.
        assert!(memo.get_or_parse(8, "<a/>").is_err());
        assert!(memo.get_or_parse(8, "<a/>").is_err());
    }

    #[test]
    fn parse_memo_evicts_oldest_first_within_its_byte_bound() {
        let docs: Vec<String> = (0..3).map(|i| one_type_doc(&format!("Evict{i}"))).collect();
        let bound = docs[0].len() + docs[1].len();
        let memo = ParseMemo::new(bound, &MetricsRegistry::new());
        let first: Vec<_> = docs
            .iter()
            .map(|d| memo.get_or_parse(content_hash64(d.as_bytes()), d).unwrap())
            .collect();
        let state = sync::lock(&memo.state);
        assert!(state.bytes <= bound, "{} > {bound}", state.bytes);
        assert_eq!(state.order.len(), 2, "the oldest entry made room");
        drop(state);
        let again = |i: usize| memo.get_or_parse(content_hash64(docs[i].as_bytes()), &docs[i]);
        assert!(Arc::ptr_eq(&first[2], &again(2).unwrap()), "newest kept");
        assert!(!Arc::ptr_eq(&first[0], &again(0).unwrap()), "oldest re-parsed");
        // A body larger than the whole bound is parsed but not retained.
        let tiny = ParseMemo::new(8, &MetricsRegistry::new());
        tiny.get_or_parse(1, &docs[0]).unwrap();
        assert_eq!(sync::lock(&tiny.state).bytes, 0);
    }

    #[test]
    fn forged_hash_collisions_load_distinct_definitions() {
        let xmit = Xmit::new(MachineModel::native());
        let (a, b) = (one_type_doc("CollideA"), one_type_doc("CollideB"));
        // Both bodies claim one hash; neither may stand in for the other,
        // through the per-URL check, the cross-URL index or the memo.
        let hash = 0x00c0_111d_e000_0001;
        let first = xmit.load_body("mem://collide-a", &a, None, hash).unwrap();
        assert_eq!(first, LoadOutcome::Loaded(vec!["CollideA".to_string()]));
        let second = xmit.load_body("mem://collide-b", &b, None, hash).unwrap();
        assert_eq!(second, LoadOutcome::Loaded(vec!["CollideB".to_string()]));
        let third = xmit.load_body("mem://collide-a", &b, None, hash).unwrap();
        assert_eq!(third.names(), ["CollideB"]);
        assert_eq!(xmit.loaded_types(), vec!["CollideA", "CollideB"]);
        assert_eq!(xmit.definition("CollideB").unwrap().name, "CollideB");
    }

    #[test]
    fn fresh_toolkits_share_the_parse_but_not_the_outcome() {
        let doc = one_type_doc("SharedParse");
        let first = Xmit::new(MachineModel::native());
        let second = Xmit::new(MachineModel::native());
        for tk in [&first, &second] {
            tk.source().put_mem("shared", doc.clone());
            let out = tk.load_url_cached("mem://shared").unwrap();
            assert_eq!(out, LoadOutcome::Loaded(vec!["SharedParse".to_string()]));
            assert_eq!(tk.schema_cache_stats().misses, 1);
        }
        let parse = |tk: &Xmit| tk.schema_cache.read().get("mem://shared").unwrap().doc.clone();
        assert!(Arc::ptr_eq(&parse(&first), &parse(&second)), "one parse per body");
    }

    #[test]
    fn binding_is_idempotent() {
        let xmit = Xmit::new(MachineModel::native());
        xmit.load_str(&join_request_xml()).unwrap();
        let t1 = xmit.bind("JoinRequest").unwrap();
        let t2 = xmit.bind("JoinRequest").unwrap();
        assert!(Arc::ptr_eq(&t1.format, &t2.format));
    }
}
