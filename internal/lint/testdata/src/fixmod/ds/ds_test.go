package ds

import "testing"

func TestOwn(t *testing.T) {
	if OwnTestOnly() != 1 {
		t.Fatal("OwnTestOnly")
	}
}
