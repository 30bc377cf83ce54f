//! End-to-end tests over a real loopback socket: correctness of the
//! request→response pairing under concurrency, admission control under
//! overload, shape validation, and the draining shutdown guarantee.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::Duration;

use gcnn_conv::Strategy;
use gcnn_models::Network;
use gcnn_serve::{BatchPolicy, Client, ServeConfig, Server, Status};

const SIZE: usize = 16;
const CLASSES: usize = 4;

fn test_net() -> Network {
    Network::lenet5(SIZE, CLASSES, Strategy::Direct, 42)
}

fn start(workers: usize, policy: BatchPolicy) -> Server {
    Server::start(
        ServeConfig::loopback(workers, policy, (1, SIZE, SIZE)),
        |_| test_net(),
    )
    .expect("bind loopback")
}

/// A deterministic per-request image so responses can be checked
/// against a local forward pass.
fn image(seed: u64) -> Vec<f32> {
    (0..SIZE * SIZE)
        .map(|i| ((seed as usize * 31 + i * 7) % 97) as f32 / 97.0 - 0.5)
        .collect()
}

fn local_logits(net: &Network, pixels: &[f32]) -> Vec<f32> {
    use gcnn_tensor::{Shape4, Tensor4};
    let input = Tensor4::from_vec(Shape4::new(1, 1, SIZE, SIZE), pixels.to_vec())
        .expect("shape matches pixel count");
    net.forward(&input).as_slice().to_vec()
}

#[test]
fn single_request_roundtrip_matches_local_forward() {
    let server = start(1, BatchPolicy::new(4, Duration::from_millis(2)));
    let mut client = Client::connect(server.local_addr()).unwrap();
    let net = test_net();

    let pixels = image(7);
    let resp = client
        .infer(1, SIZE as u16, SIZE as u16, &pixels)
        .expect("roundtrip");
    assert_eq!(resp.status, Status::Ok);
    let expected = local_logits(&net, &pixels);
    assert_eq!(resp.values.len(), CLASSES);
    for (got, want) in resp.values.iter().zip(&expected) {
        assert!(
            (got - want).abs() < 1e-5,
            "served logits diverge from local forward: {got} vs {want}"
        );
    }
    server.shutdown();
}

#[test]
fn pipelined_requests_pair_by_id_and_batch() {
    // One worker + a generous delay budget force coalescing: with 8
    // requests in flight and max_batch 8, at least one multi-request
    // batch must form.
    let server = start(1, BatchPolicy::new(8, Duration::from_millis(50)));
    let mut client = Client::connect(server.local_addr()).unwrap();
    let net = test_net();

    let n = 8u64;
    let mut ids = Vec::new();
    for seed in 0..n {
        ids.push(
            client
                .send(1, SIZE as u16, SIZE as u16, &image(seed))
                .unwrap(),
        );
    }
    for _ in 0..n {
        let resp = client.recv().unwrap().expect("response before close");
        assert_eq!(resp.status, Status::Ok);
        // id k carried image(k); check the pairing survived batching.
        let expected = local_logits(&net, &image(resp.id));
        for (got, want) in resp.values.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-5, "id {} mispaired", resp.id);
        }
    }
    let stats = server.stats();
    assert_eq!(stats.completed, n);
    assert!(
        stats.batches_multi >= 1,
        "8 pipelined requests under a 50ms budget formed no multi-batch: {stats:?}"
    );
    server.shutdown();
}

#[test]
fn wrong_shape_is_rejected_without_queueing() {
    let server = start(1, BatchPolicy::new(4, Duration::from_millis(2)));
    let mut client = Client::connect(server.local_addr()).unwrap();

    let pixels = vec![0.0f32; 8 * 8];
    let resp = client.infer(1, 8, 8, &pixels).expect("roundtrip");
    assert_eq!(resp.status, Status::BadRequest);
    assert!(resp.values.is_empty());

    // The connection stays usable for well-formed requests.
    let resp = client
        .infer(1, SIZE as u16, SIZE as u16, &image(1))
        .unwrap();
    assert_eq!(resp.status, Status::Ok);

    let stats = server.stats();
    assert_eq!(stats.bad_requests, 1);
    assert_eq!(stats.accepted, 1);
    server.shutdown();
}

#[test]
fn overload_sheds_instead_of_queueing_unboundedly() {
    // queue_cap 2 with a long delay budget and one worker: a burst of
    // 16 pipelined requests must see some Shed responses, and every
    // request gets exactly one answer.
    let policy = BatchPolicy::new(2, Duration::from_millis(200)).with_queue_cap(2);
    let server = start(1, policy);
    let mut client = Client::connect(server.local_addr()).unwrap();

    let n = 16u64;
    for seed in 0..n {
        client
            .send(1, SIZE as u16, SIZE as u16, &image(seed))
            .unwrap();
    }
    let mut ok = 0u64;
    let mut shed = 0u64;
    for _ in 0..n {
        let resp = client.recv().unwrap().expect("every request is answered");
        match resp.status {
            Status::Ok => ok += 1,
            Status::Shed => shed += 1,
            Status::BadRequest => panic!("well-formed request marked bad"),
        }
    }
    assert_eq!(ok + shed, n);
    assert!(ok >= 2, "admitted requests must still complete, got {ok}");
    let stats = server.stats();
    assert_eq!(stats.completed, ok);
    assert_eq!(stats.shed, shed);
    server.shutdown();
}

#[test]
fn shutdown_drains_inflight_requests() {
    // A long delay budget means requests sit in the queue when
    // shutdown lands; drain semantics require they still complete.
    let server = start(1, BatchPolicy::new(32, Duration::from_secs(5)));
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    let n = 6u64;
    for seed in 0..n {
        client
            .send(1, SIZE as u16, SIZE as u16, &image(seed))
            .unwrap();
    }
    // Wait until all n are admitted (readers run on their own thread).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().accepted < n {
        assert!(
            std::time::Instant::now() < deadline,
            "requests never reached the queue"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Receive on a helper thread so shutdown and recv can overlap.
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for _ in 0..n {
            let resp = client.recv().unwrap().expect("drained response");
            tx.send(resp.status).unwrap();
        }
    });
    server.shutdown();
    reader.join().expect("reader thread");
    let mut ok = 0;
    while let Ok(status) = rx.try_recv() {
        assert_eq!(status, Status::Ok, "in-flight request dropped at shutdown");
        ok += 1;
    }
    assert_eq!(ok, n, "all queued requests must drain before shutdown");
}

#[test]
fn post_shutdown_connects_are_refused_or_shed() {
    let server = start(1, BatchPolicy::new(4, Duration::from_millis(2)));
    let addr: SocketAddr = server.local_addr();
    server.shutdown();
    // After shutdown the listener is gone; a connect either fails or
    // (if it races the accept-thread teardown) is closed immediately.
    if let Ok(mut client) = Client::connect(addr) {
        match client.infer(1, SIZE as u16, SIZE as u16, &image(0)) {
            Ok(resp) => assert_ne!(resp.status, Status::Ok),
            Err(_) => {} // connection reset: fine
        }
    }
}

#[test]
fn multiple_workers_serve_concurrent_connections() {
    let server = start(2, BatchPolicy::new(4, Duration::from_millis(5)));
    let addr = server.local_addr();
    let net = test_net();

    let handles: Vec<_> = (0..4u64)
        .map(|conn| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut out = Vec::new();
                for seed in 0..4u64 {
                    let pixels = image(conn * 100 + seed);
                    let resp = client.infer(1, SIZE as u16, SIZE as u16, &pixels).unwrap();
                    assert_eq!(resp.status, Status::Ok);
                    out.push((conn * 100 + seed, resp.values));
                }
                out
            })
        })
        .collect();
    for handle in handles {
        for (seed, values) in handle.join().expect("client thread") {
            let expected = local_logits(&net, &image(seed));
            for (got, want) in values.iter().zip(&expected) {
                assert!((got - want).abs() < 1e-5, "seed {seed} mispaired");
            }
        }
    }
    assert_eq!(server.stats().completed, 16);
    server.shutdown();
}
