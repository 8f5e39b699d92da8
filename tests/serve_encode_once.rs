//! Encode once: the server encodes a cached frame's reply envelope on
//! the first request at each protocol version and writes the stored
//! bytes on every later hit. These tests read raw reply envelopes off
//! the socket and hold the stored bytes to three standards: a hit sends exactly what the miss sent, both equal a
//! local encoding of a local extraction, and `serve.frame_encodes`
//! counts one encode per (key, version) since the key was last built.

use accelviz::beam::distribution::Distribution;
use accelviz::core::hybrid::HybridFrame;
use accelviz::octree::builder::{partition, BuildParams};
use accelviz::octree::extraction::threshold_for_budget;
use accelviz::octree::plots::PlotType;
use accelviz::octree::sorted_store::PartitionedData;
use accelviz::serve::protocol::{write_request, Request};
use accelviz::serve::stats::{
    CTR_CACHE_HITS, CTR_CACHE_MISSES, CTR_FRAME_BYTES_RAW, CTR_FRAME_BYTES_WIRE, CTR_FRAME_ENCODES,
};
use accelviz::serve::wire::{encode_frame_envelope, V1, V2};
use accelviz::serve::{Client, FrameServer, ServerConfig};
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};

fn stores(n: usize) -> Vec<PartitionedData> {
    (0..n)
        .map(|i| {
            let ps = Distribution::default_beam().sample(3_000, i as u64 + 7);
            partition(&ps, PlotType::XYZ, BuildParams::default())
        })
        .collect()
}

/// Reads one whole envelope, header through checksum trailer, as the
/// raw bytes the server wrote.
fn read_raw_envelope(stream: &mut TcpStream) -> Vec<u8> {
    let mut buf = vec![0u8; 16];
    stream.read_exact(&mut buf).unwrap();
    let len = u64::from_le_bytes(buf[8..16].try_into().unwrap()) as usize;
    buf.resize(16 + len + 8, 0);
    stream.read_exact(&mut buf[16..]).unwrap();
    buf
}

/// A raw connection speaking `version`: a v1 session sends no `Hello`
/// (the frozen pre-v2 byte stream), a v2 session negotiates first.
fn raw_session(addr: SocketAddr, version: u16) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    if version >= V2 {
        write_request(&mut stream, &Request::Hello { version }).unwrap();
        read_raw_envelope(&mut stream);
    }
    stream
}

fn fetch_raw(stream: &mut TcpStream, frame: u32, threshold: f64) -> Vec<u8> {
    write_request(stream, &Request::RequestFrame { frame, threshold }).unwrap();
    read_raw_envelope(stream)
}

#[test]
fn cache_hits_send_the_bytes_the_miss_sent() {
    let local = stores(2);
    let threshold = threshold_for_budget(&local[1], 400);
    for version in [V1, V2] {
        let config = ServerConfig::default();
        let server = FrameServer::spawn_loopback(stores(2), config).unwrap();
        let reference = HybridFrame::from_partition(&local[1], 1, threshold, config.volume_dims);
        let expected = encode_frame_envelope(&reference, version);

        let mut session = raw_session(server.addr(), version);
        let miss = fetch_raw(&mut session, 1, threshold);
        assert_eq!(
            miss,
            &expected.bytes[..],
            "v{version}: the miss must equal a local encoding"
        );
        for i in 0..4 {
            let hit = fetch_raw(&mut session, 1, threshold);
            assert_eq!(hit, miss, "v{version}: hit {i} differs");
        }
        let mut other = raw_session(server.addr(), version);
        let hit = fetch_raw(&mut other, 1, threshold);
        assert_eq!(hit, miss, "v{version}: hit on a second connection");

        let m = server.metrics();
        assert_eq!(
            (m.counter(CTR_CACHE_MISSES), m.counter(CTR_CACHE_HITS)),
            (1, 5)
        );
        assert_eq!(
            m.counter(CTR_FRAME_ENCODES),
            1,
            "v{version}: six fetches of one key encode once"
        );
        // The byte counters still count every reply, from the stored
        // lengths.
        assert_eq!(m.counter(CTR_FRAME_BYTES_RAW), 6 * expected.raw_len);
        assert_eq!(m.counter(CTR_FRAME_BYTES_WIRE), 6 * expected.payload_len());
        server.shutdown();
    }
}

#[test]
fn frame_encodes_count_key_version_pairs_since_each_build() {
    let local = stores(2);
    let t: Vec<f64> = local.iter().map(|d| threshold_for_budget(d, 300)).collect();
    let config = ServerConfig {
        cache_capacity: 2,
        ..ServerConfig::default()
    };
    let server = FrameServer::spawn_loopback(stores(2), config).unwrap();
    let encodes = || server.metrics().counter(CTR_FRAME_ENCODES);
    let mut v1 = raw_session(server.addr(), V1);
    let mut v2 = raw_session(server.addr(), V2);
    for _ in 0..3 {
        for frame in 0..2u32 {
            fetch_raw(&mut v1, frame, t[frame as usize]);
            fetch_raw(&mut v2, frame, t[frame as usize]);
        }
    }
    assert_eq!(encodes(), 4, "2 keys x 2 versions");

    // A third key evicts frame 0's entry (the least recently used);
    // its envelopes go with it and the rebuilt entry encodes anew.
    fetch_raw(&mut v2, 1, f64::INFINITY);
    assert_eq!(encodes(), 5);
    let rebuilt = fetch_raw(&mut v2, 0, t[0]);
    assert_eq!(encodes(), 6, "an evicted key encodes again");
    let reference = HybridFrame::from_partition(&local[0], 0, t[0], config.volume_dims);
    assert_eq!(rebuilt, &encode_frame_envelope(&reference, V2).bytes[..]);
    server.shutdown();
}

#[test]
fn concurrent_first_hits_encode_once() {
    const THREADS: usize = 8;
    let local = stores(1);
    let threshold = threshold_for_budget(&local[0], 500);
    let config = ServerConfig::default();
    let server = FrameServer::spawn_loopback(stores(1), config).unwrap();
    // A progressive fetch builds the cache entry without encoding its
    // frame envelope, so every fetch below is a hit on an empty slot.
    let mut warm = Client::connect(server.addr()).unwrap();
    warm.fetch_progressive(0, threshold, 0).unwrap();
    assert_eq!(server.metrics().counter(CTR_FRAME_ENCODES), 0);

    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut session = raw_session(addr, V2);
                barrier.wait();
                fetch_raw(&mut session, 0, threshold)
            })
        })
        .collect();
    let replies: Vec<Vec<u8>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let m = server.metrics();
    assert_eq!(
        m.counter(CTR_FRAME_ENCODES),
        1,
        "{THREADS} racing first hits"
    );
    assert_eq!(
        (m.counter(CTR_CACHE_MISSES), m.counter(CTR_CACHE_HITS)),
        (1, 8)
    );
    let reference = HybridFrame::from_partition(&local[0], 0, threshold, config.volume_dims);
    let expected = encode_frame_envelope(&reference, V2);
    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(reply, &expected.bytes[..], "reply {i}");
    }
    server.shutdown();
}
