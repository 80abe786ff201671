.globl _fib
_fib:
	enter	$8
	ldl	r0,4(ap)
	li	r1,$2
	bgel	r0,r1,L1
	ldl	r0,4(ap)
	ret
L1:
	ldl	r0,4(ap)
	addi	r0,r0,$-1
	push	r0
	call	$1,_fib
	stl	r0,-4(fp)
	ldl	r0,4(ap)
	addi	r0,r0,$-2
	push	r0
	call	$1,_fib
	stl	r0,-8(fp)
	ldl	r0,-4(fp)
	ldl	r1,-8(fp)
	addl	r0,r0,r1
	ret
.globl _main
_main:
	push	$10
	call	$1,_fib
	ret
