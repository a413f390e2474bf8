//! End-to-end pinning of the oracle service (`crates/service`): an
//! in-process `oracled` serve loop, real TCP clients, and a persistent
//! content-addressed result store.
//!
//! The acceptance bar, from the top of the stack:
//!
//! - a repeated submission is answered from the store with the *exact
//!   stored bytes* (the second response is byte-identical to the first)
//!   and without re-exploring (server stats pin `explorations`);
//! - the cache survives a server stop → restart on the same directory
//!   (the store is written through on every miss, so an abrupt kill
//!   loses nothing already answered);
//! - a budget-truncated submission is recorded and *re-served* as
//!   inconclusive — a bounded record is never upgraded to a conclusive
//!   verdict by the cache;
//! - concurrent clients submitting a distinct/duplicate mix get
//!   whole, identical responses (no torn frames) and the server
//!   explores each distinct content key exactly once (singleflight);
//! - a protocol-violating client (garbage length prefix) loses its
//!   connection but does not take the server down.

use ppcmem::litmus::harness::HarnessConfig;
use ppcmem::litmus::TestReport;
use ppcmem::model::store::create_unique_temp_dir;
use ppcmem::service::{serve, Budget, Client, Oracle, Response, ServerConfig, ServerHandle};
use std::sync::Arc;

/// Start an in-process server backed by a cache at `dir`.
fn start_server(dir: &std::path::Path) -> ServerHandle {
    let oracle = Oracle::with_cache(HarnessConfig::default(), dir).expect("open cache");
    serve(&ServerConfig::default(), Arc::new(oracle)).expect("bind server")
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(&format!("127.0.0.1:{}", handle.port())).expect("connect")
}

/// A tiny single-thread program parameterized by `k`, so distinct `k`
/// are distinct content keys with near-zero exploration cost.
fn tiny_source(k: u64) -> String {
    format!(
        "POWER TINY{k}\n{{\n0:r1=x; 0:r7={k};\nx=0;\n}}\n P0           ;\n stw r7,0(r1) ;\nexists (0:r7={k})\n"
    )
}

/// The library MP shape — big enough that a 10-state budget truncates.
const MP: &str = r"POWER MP
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
1:r1=x; 1:r2=y;
x=0; y=0;
}
 P0           | P1           ;
 stw r7,0(r1) | lwz r5,0(r2) ;
 stw r8,0(r2) | lwz r4,0(r1) ;
exists (1:r5=1 /\ 1:r4=0)
";

fn expect_result(resp: Response) -> (bool, String) {
    match resp {
        Response::Result { cached, line } => (cached, line),
        Response::Error(e) => panic!("server rejected query: {e}"),
    }
}

use ppcmem::litmus::Expectation;

fn submit(client: &mut Client, source: &str, budget: Budget) -> (bool, String) {
    expect_result(
        client
            .query(source, Expectation::Allowed, "e2e-test", budget)
            .expect("query round trip"),
    )
}

/// Same source twice: the second answer comes from the store, is
/// byte-identical, and costs no exploration; the cache then survives a
/// server stop → restart on the same directory.
#[test]
fn repeat_submission_is_served_from_cache_across_restart() {
    let dir = create_unique_temp_dir("oracle-e2e").expect("temp dir");
    let (cold_line, warm_line);
    {
        let handle = start_server(&dir);
        let mut client = connect(&handle);
        let (cached, line) = submit(&mut client, MP, Budget::default());
        assert!(!cached, "first submission must explore");
        cold_line = line;
        let (cached, line) = submit(&mut client, MP, Budget::default());
        assert!(cached, "second submission must be served from the store");
        warm_line = line;
        let stats = client.stats().expect("stats");
        assert_eq!(stats.explorations, 1, "one exploration for one key");
        assert_eq!(stats.hits, 1);
    }
    assert_eq!(cold_line, warm_line, "cache hit must re-serve stored bytes");
    let report = TestReport::from_json_line(&cold_line).expect("line parses");
    assert!(report.conclusive() && report.model_allows);

    // Restart on the same directory (the first server's handle was
    // dropped without a graceful client shutdown): still a hit, still
    // the same bytes, zero explorations on the new server.
    let handle = start_server(&dir);
    let mut client = connect(&handle);
    let (cached, line) = submit(&mut client, MP, Budget::default());
    assert!(cached, "restarted server must serve the persisted record");
    assert_eq!(line, cold_line);
    assert_eq!(client.stats().expect("stats").explorations, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A budget-truncated record is cached and re-served as inconclusive:
/// the cache never upgrades a bounded exploration to a conclusive
/// verdict, and the narrow budget gets its own content key (the
/// default-budget record stays conclusive).
#[test]
fn truncated_budget_submission_stays_inconclusive_on_reserve() {
    let dir = create_unique_temp_dir("oracle-e2e").expect("temp dir");
    let handle = start_server(&dir);
    let mut client = connect(&handle);
    let tiny = Budget {
        max_states: 10,
        timeout_ms: 0,
    };
    let (cached, first) = submit(&mut client, MP, tiny);
    assert!(!cached);
    let r = TestReport::from_json_line(&first).expect("line parses");
    assert!(r.truncated, "10-state budget must truncate MP");
    assert!(!r.conclusive(), "truncated unwitnessed run is inconclusive");

    let (cached, again) = submit(&mut client, MP, tiny);
    assert!(cached, "the truncated record is itself cacheable");
    assert_eq!(again, first, "re-served bytes are the stored bytes");
    let r = TestReport::from_json_line(&again).expect("line parses");
    assert!(
        !r.conclusive(),
        "a cached truncated record must stay inconclusive"
    );

    // The default budget is a different content key: it explores fresh
    // and reaches the conclusive verdict.
    let (cached, full) = submit(&mut client, MP, Budget::default());
    assert!(!cached, "a different budget must not reuse the record");
    let r = TestReport::from_json_line(&full).expect("line parses");
    assert!(r.conclusive());
    std::fs::remove_dir_all(&dir).ok();
}

/// N concurrent clients over a distinct/duplicate mix: every response
/// is whole and parseable, duplicates get byte-identical lines, and
/// the server explores each distinct key exactly once.
#[test]
fn concurrent_clients_no_torn_responses_exactly_once_exploration() {
    let dir = create_unique_temp_dir("oracle-e2e").expect("temp dir");
    let handle = start_server(&dir);
    let port = handle.port();
    const DISTINCT: u64 = 4;
    const CLIENTS: usize = 8; // two clients per distinct source
    let results: Vec<(u64, String)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|i| {
                s.spawn(move || {
                    let k = (i as u64) % DISTINCT;
                    let mut client =
                        Client::connect(&format!("127.0.0.1:{port}")).expect("connect");
                    let (_cached, line) = expect_result(
                        client
                            .query(
                                &tiny_source(k),
                                Expectation::Allowed,
                                "e2e-test",
                                Budget::default(),
                            )
                            .expect("query"),
                    );
                    (k, line)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    for (k, line) in &results {
        let r = TestReport::from_json_line(line).expect("whole, parseable response line");
        assert_eq!(r.name, format!("TINY{k}"));
        assert!(r.conclusive() && r.model_allows && r.matches);
        // Duplicates are byte-identical: whichever of hit/coalesced
        // path served them, the bytes come from the same record.
        for (k2, line2) in &results {
            if k2 == k {
                assert_eq!(line, line2, "duplicate key must serve identical bytes");
            }
        }
    }
    let mut client = connect(&handle);
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.explorations, DISTINCT,
        "each distinct content key explores exactly once \
         (hits={} coalesced={})",
        stats.hits, stats.coalesced
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A protocol-violating client (oversized length prefix) loses its own
/// connection; the server keeps answering well-behaved clients.
#[test]
fn garbage_frame_drops_one_connection_not_the_server() {
    let dir = create_unique_temp_dir("oracle-e2e").expect("temp dir");
    let handle = start_server(&dir);
    {
        use std::io::Write as _;
        let mut rogue =
            std::net::TcpStream::connect(("127.0.0.1", handle.port())).expect("connect");
        // Length prefix far above MAX_FRAME: rejected before allocation.
        rogue.write_all(&u32::MAX.to_le_bytes()).expect("write");
        rogue.flush().expect("flush");
    }
    let mut client = connect(&handle);
    let (cached, line) = submit(&mut client, &tiny_source(0), Budget::default());
    assert!(!cached);
    assert!(TestReport::from_json_line(&line).expect("parses").matches);
    std::fs::remove_dir_all(&dir).ok();
}

/// The committed `tests/data/oracle_cache_v1/` directory was written by
/// the commit before the store moved onto `ppc_bits::SortedRun`
/// (`open_with(dir, 4)`, 14 keys + one re-put, so 12 records are cold,
/// 3 sit in the unindexed log tail, and key 2's newer record shadows its
/// indexed one). Any later build must serve it byte-for-byte and leave
/// both files as they are — the on-disk formats did not move.
#[test]
fn committed_v1_cache_fixture_is_served_byte_for_byte() {
    use ppcmem::service::store::{Probe, IDX_NAME, LOG_NAME};
    use ppcmem::service::{QueryKey, ResultStore};

    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/oracle_cache_v1");
    let dir = create_unique_temp_dir("ppcmem-svc-fixture").expect("temp dir");
    for name in [LOG_NAME, IDX_NAME] {
        std::fs::copy(fixture.join(name), dir.join(name)).expect("copy fixture");
    }
    let mut store = ResultStore::open(&dir).expect("open fixture");
    for i in 0..14u64 {
        let key = QueryKey::from_bytes(format!("fixture-key-{i}").into_bytes());
        let states = if i == 2 { 999 } else { i * 7 + 1 };
        assert_eq!(
            store.get(&key),
            Probe::Hit(format!("{{\"name\":\"fixture-{i}\",\"states\":{states}}}")),
            "fixture record {i}"
        );
    }
    let absent = QueryKey::from_bytes(b"fixture-key-14".to_vec());
    assert_eq!(store.get(&absent), Probe::Miss);
    drop(store);
    for name in [LOG_NAME, IDX_NAME] {
        assert_eq!(
            std::fs::read(dir.join(name)).expect("read back"),
            std::fs::read(fixture.join(name)).expect("read fixture"),
            "{name} must survive an open untouched"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
