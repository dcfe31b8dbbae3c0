package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestReadBudget(t *testing.T) {
	tmp := t.TempDir()
	path := filepath.Join(tmp, "budget")
	if err := os.WriteFile(path, []byte(" 5 \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := readBudget(path)
	if err != nil || n != 5 {
		t.Errorf("readBudget = %d, %v; want 5, nil", n, err)
	}
	if err := os.WriteFile(path, []byte("not a number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBudget(path); err == nil {
		t.Error("readBudget accepted garbage")
	}
	if _, err := readBudget(filepath.Join(tmp, "missing")); err == nil {
		t.Error("readBudget accepted a missing file")
	}
}
