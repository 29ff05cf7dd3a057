package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCheckProcsRefusesOversubscription(t *testing.T) {
	if err := checkProcs(2, 2, 2); err != nil {
		t.Errorf("2 CPUs, GOMAXPROCS 2, 2 generators: %v", err)
	}
	if err := checkProcs(2, 4, 2); err == nil {
		t.Error("GOMAXPROCS above nproc must be refused")
	}
	if err := checkProcs(1, 1, 2); err == nil {
		t.Error("more generator goroutines and connections than CPUs must be refused")
	}
}

func TestCommitOf(t *testing.T) {
	dir := t.TempDir()
	if got := commitOf(dir); got != "unknown" {
		t.Errorf("no repository: %q", got)
	}
	git := filepath.Join(dir, ".git", "refs", "heads")
	if err := os.MkdirAll(git, 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, ".git", "HEAD"), []byte("ref: refs/heads/main\n"), 0o644)
	os.WriteFile(filepath.Join(git, "main"), []byte("abc123\n"), 0o644)
	if got := commitOf(dir); got != "abc123" {
		t.Errorf("branch head: %q", got)
	}
	os.WriteFile(filepath.Join(dir, ".git", "HEAD"), []byte("def456\n"), 0o644)
	if got := commitOf(dir); got != "def456" {
		t.Errorf("detached head: %q", got)
	}
}

func TestSeedsDiffer(t *testing.T) {
	if DevSeed == HeldOutSeed {
		t.Error("the held-out seed must not be the development seed")
	}
}
