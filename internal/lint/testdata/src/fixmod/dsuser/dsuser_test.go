package dsuser

import (
	"testing"

	"fixmod/ds"
)

func TestShared(t *testing.T) {
	if ds.SharedFixture() != 2 {
		t.Fatal("SharedFixture")
	}
}
