package lib

import "testing"

func TestPlanted(t *testing.T) {
	if Planted()+helper(2) != 1 || Used(Config{TestOnly: 1}) != 1 {
		t.Fatal("planted")
	}
}
