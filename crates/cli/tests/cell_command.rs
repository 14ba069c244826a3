//! `fxnet cell` prints exactly the body `GET /v1/cell` returns: the
//! built binary and an in-process daemon answer the same queries over
//! `specs/quick.toml`, for a cell of the spec's grid and for an ad-hoc
//! cell outside it.

use fx_campaign::{serve, CampaignSpec, ServeOptions};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Output};

fn quick_spec_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs/quick.toml")
}

fn fxnet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fxnet"))
        .args(args)
        .output()
        .expect("fxnet runs")
}

/// The body of a `GET` answered `200`, read to EOF on a
/// `Connection: close` request.
fn get_body(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("complete response");
    assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
    body.to_string()
}

#[test]
fn cell_command_prints_the_served_body() {
    let spec_path = quick_spec_path();
    let spec = CampaignSpec::load(&spec_path).unwrap();
    let server = serve(
        &spec,
        &ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let queries: [(&str, &str, &str, &str); 2] = [
        // a cell of the spec's grid
        ("torus:8,8", "random:0.05", "expansion-cert", "1"),
        // ad hoc: outside the grid, spelled with an alias
        ("cycle:16", "sparse-cut:2", "prune", "4"),
    ];
    for (scenario, fault, algo, replicate) in queries {
        let out = fxnet(&[
            "cell",
            "--spec",
            spec_path.to_str().unwrap(),
            "--scenario",
            scenario,
            "--fault",
            fault,
            "--algo",
            algo,
            "--replicate",
            replicate,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let served = get_body(
            server.addr(),
            &format!(
                "/v1/cell?scenario={scenario}&fault={fault}&algo={algo}&replicate={replicate}"
            ),
        );
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            served,
            "{scenario}|{fault}|{algo}"
        );
    }
    server.shutdown();
}

#[test]
fn cell_command_rejects_invalid_queries() {
    let spec_path = quick_spec_path();
    let spec = spec_path.to_str().unwrap();
    for (args, message) in [
        (
            vec!["cell", "--spec", spec, "--scenario", "torus:8,8"],
            "missing --algo",
        ),
        (
            vec![
                "cell",
                "--spec",
                spec,
                "--scenario",
                "torus:8,8",
                "--fault",
                "random:0.1",
                "--algo",
                "span",
            ],
            "span is a property of the fault-free graph",
        ),
    ] {
        let out = fxnet(&args);
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{stderr}");
    }
}
