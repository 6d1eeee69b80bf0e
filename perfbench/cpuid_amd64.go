package main

// cpuid executes the CPUID instruction (cpuid_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func init() { cpuidFn = cpuid }
